#include "src/net/network.h"

#include <utility>

#include "src/net/fault.h"
#include "src/net/reliable_channel.h"

namespace flb::net {

Status Network::Send(const std::string& from, const std::string& to,
                     const std::string& topic, std::vector<uint8_t> payload,
                     size_t objects) {
  if (deadline_ != nullptr) {
    FLB_RETURN_IF_ERROR(deadline_->Check("Network::Send"));
  }
  if (reliable_ != nullptr) {
    return reliable_->Send(from, to, topic, std::move(payload), objects);
  }
  return SendDirect(from, to, topic, std::move(payload), objects);
}

Result<Message> Network::Receive(const std::string& to,
                                 const std::string& topic) {
  if (deadline_ != nullptr) {
    FLB_RETURN_IF_ERROR(deadline_->Check("Network::Receive"));
  }
  if (reliable_ != nullptr) return reliable_->Receive(to, topic);
  return ReceiveDirect(to, topic);
}

Status Network::SendDirect(const std::string& from, const std::string& to,
                           const std::string& topic,
                           std::vector<uint8_t> payload, size_t objects,
                           SendOutcome* outcome) {
  if (from == to) {
    return Status::InvalidArgument("Network::Send: from == to (" + from + ")");
  }
  FaultInjector::Decision fault;
  if (injector_ != nullptr) {
    fault = injector_->OnSend(from, to, topic, payload.size());
  }
  const size_t wire_bytes = payload.size() + kFramingBytes;
  // The attempt consumes link time whether or not it is delivered; a
  // straggler sender's slow NIC/host stretches its transfers.
  double sec = TransferSeconds(wire_bytes, objects) + fault.extra_delay_sec;
  if (injector_ != nullptr) sec *= injector_->StragglerFactor(from);
  if (outcome != nullptr) {
    outcome->delivered = fault.deliver;
    outcome->corrupted = fault.corrupt;
    outcome->duplicated = fault.duplicate;
  }
  {
    common::MutexLock lock(mu_);
    stats_.messages += 1;
    stats_.bytes += wire_bytes;
    stats_.bytes_by_topic[topic] += wire_bytes;
    stats_.seconds += sec;
    if (fault.deliver) {
      Message msg;
      msg.from = from;
      msg.to = to;
      msg.topic = topic;
      msg.payload = std::move(payload);
      if (fault.corrupt && !msg.payload.empty()) {
        const size_t bit = fault.corrupt_bit % (msg.payload.size() * 8);
        msg.payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      auto& inbox = inboxes_[to];
      if (fault.duplicate) {
        // The duplicate copy also crossed the wire.
        stats_.bytes += wire_bytes;
        stats_.bytes_by_topic[topic] += wire_bytes;
        inbox.push_back(msg);
      }
      if (fault.reorder) {
        inbox.push_front(std::move(msg));
      } else {
        inbox.push_back(std::move(msg));
      }
    }
  }
  // Charge + trace span on the sender's track (outside mu_: the recorder
  // and clock are other components' concerns): one span per message, sized
  // by its transfer time, with the routing details in the args.
  std::vector<obs::TraceArg> args = {
      obs::Arg("to", to), obs::Arg("bytes", static_cast<uint64_t>(wire_bytes)),
      obs::Arg("objects", static_cast<uint64_t>(objects))};
  if (fault.fault != nullptr) args.push_back(obs::Arg("fault", fault.fault));
  obs::ChargeSpan(
      clock_, CostKind::kNetwork, sec,
      obs::TraceRecorder::Global().RegisterTrack(instance_, from), topic,
      "network", std::move(args));
  return Status::OK();
}

Result<Message> Network::ReceiveDirect(const std::string& to,
                                       const std::string& topic) {
  if (injector_ != nullptr && injector_->IsCrashed(to)) {
    return Status::Unavailable("Network::Receive: " + to + " is down");
  }
  common::MutexLock lock(mu_);
  auto it = inboxes_.find(to);
  if (it != inboxes_.end()) {
    auto& queue = it->second;
    for (auto mit = queue.begin(); mit != queue.end(); ++mit) {
      if (mit->topic == topic) {
        Message msg = std::move(*mit);
        queue.erase(mit);
        return msg;
      }
    }
  }
  return Status::NotFound("Network::Receive: no pending '" + topic +
                          "' message for " + to);
}

void Network::ChargeControl(const std::string& from, const std::string& to,
                            const std::string& topic, size_t bytes) {
  const size_t wire_bytes = bytes + kFramingBytes;
  double sec = TransferSeconds(wire_bytes);
  if (injector_ != nullptr) sec *= injector_->StragglerFactor(from);
  {
    common::MutexLock lock(mu_);
    stats_.bytes += wire_bytes;
    stats_.bytes_by_topic[topic] += wire_bytes;
    stats_.seconds += sec;
  }
  if (clock_ != nullptr) clock_->Charge(CostKind::kNetwork, sec);
  (void)to;
}

void Network::CollectMetrics(std::vector<obs::MetricValue>& out) const {
  common::MutexLock lock(mu_);
  const std::string labels = "net=" + instance_;
  auto counter = [&](const char* name, double value,
                     const std::string& extra = "") {
    obs::MetricValue m;
    m.name = name;
    m.labels = extra.empty() ? labels : labels + "," + extra;
    m.type = obs::MetricType::kCounter;
    m.value = value;
    out.push_back(std::move(m));
  };
  counter("flb.net.messages", static_cast<double>(stats_.messages));
  counter("flb.net.bytes", static_cast<double>(stats_.bytes));
  counter("flb.net.seconds", stats_.seconds);
  for (const auto& [topic, bytes] : stats_.bytes_by_topic) {
    counter("flb.net.bytes_by_topic", static_cast<double>(bytes),
            "topic=" + topic);
  }
}

}  // namespace flb::net
