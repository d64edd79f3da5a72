#include "src/obs/run_status.h"

#include <cstring>
#include <utility>

#include "src/obs/json_util.h"
#include "src/obs/trace.h"

namespace flb::obs {

RunStatus& RunStatus::Global() {
  static RunStatus status;
  return status;
}

void RunStatus::BeginRun(const RunInfo& info) {
  {
    common::MutexLock lock(mu_);
    run_ = info;
    epoch_ = EpochStatus{};
    he_ = HeOpsStatus{};
    faults_ = FaultStatus{};
    channel_ = ChannelStatus{};
    resilience_ = ResilienceStatus{};
    totals_ = RunTotals{};
    phase_ = "setup";
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
}

void RunStatus::SetPhase(const std::string& phase) {
  {
    common::MutexLock lock(mu_);
    phase_ = phase;
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
}

void RunStatus::SetBench(const std::string& bench) {
  {
    common::MutexLock lock(mu_);
    bench_ = bench;
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
}

void RunStatus::SetSection(const std::string& section) {
  {
    common::MutexLock lock(mu_);
    section_ = section;
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
}

void RunStatus::UpdateEpoch(const EpochStatus& epoch, const HeOpsStatus& he) {
  {
    common::MutexLock lock(mu_);
    epoch_ = epoch;
    he_ = he;
    phase_ = "train";
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
}

void RunStatus::UpdateFaults(const FaultStatus& faults,
                             const ChannelStatus& channel) {
  {
    common::MutexLock lock(mu_);
    faults_ = faults;
    channel_ = channel;
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
}

void RunStatus::UpdateQuarantine(uint64_t quarantined, uint64_t quarantines,
                                 uint64_t readmits,
                                 uint64_t deadline_exceeded) {
  {
    common::MutexLock lock(mu_);
    resilience_.quarantined = quarantined;
    resilience_.quarantines = quarantines;
    resilience_.readmits = readmits;
    resilience_.deadline_exceeded = deadline_exceeded;
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
}

void RunStatus::UpdateBreaker(uint64_t open, uint64_t half_open,
                              uint64_t trips, uint64_t fast_fails) {
  {
    common::MutexLock lock(mu_);
    resilience_.breaker_open = open;
    resilience_.breaker_half_open = half_open;
    resilience_.breaker_trips = trips;
    resilience_.breaker_fast_fails = fast_fails;
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
}

void RunStatus::EndRun(const RunTotals& totals, const HeOpsStatus& he) {
  {
    common::MutexLock lock(mu_);
    totals_ = totals;
    he_ = he;
    phase_ = "done";
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
}

void RunStatus::NoteScrape(const char* endpoint) {
  if (std::strcmp(endpoint, "metrics") == 0) {
    scrapes_metrics_.fetch_add(1, std::memory_order_relaxed);
  } else if (std::strcmp(endpoint, "status") == 0) {
    scrapes_status_.fetch_add(1, std::memory_order_relaxed);
  } else if (std::strcmp(endpoint, "trace") == 0) {
    scrapes_trace_.fetch_add(1, std::memory_order_relaxed);
  } else if (std::strcmp(endpoint, "healthz") == 0) {
    scrapes_healthz_.fetch_add(1, std::memory_order_relaxed);
  } else {
    scrapes_other_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::string RunStatus::ToJson() const {
  // Leaf-lock discipline: read the other singleton before taking mu_.
  const uint64_t dropped = TraceRecorder::Global().dropped_events();
  const uint64_t generation = generation_.load(std::memory_order_relaxed);
  const uint64_t s_metrics = scrapes_metrics_.load(std::memory_order_relaxed);
  const uint64_t s_status = scrapes_status_.load(std::memory_order_relaxed);
  const uint64_t s_trace = scrapes_trace_.load(std::memory_order_relaxed);
  const uint64_t s_healthz = scrapes_healthz_.load(std::memory_order_relaxed);
  const uint64_t s_other = scrapes_other_.load(std::memory_order_relaxed);

  common::MutexLock lock(mu_);
  std::string out = "{";
  out += "\"phase\":" + JsonQuote(phase_);
  out += ",\"bench\":" + JsonQuote(bench_);
  out += ",\"section\":" + JsonQuote(section_);
  out += ",\"generation\":" + JsonNumber(generation);
  out += ",\"run\":{\"engine\":" + JsonQuote(run_.engine) +
         ",\"model\":" + JsonQuote(run_.model) +
         ",\"key_bits\":" + JsonNumber(run_.key_bits) +
         ",\"parties\":" + JsonNumber(run_.parties) +
         ",\"seed\":" + JsonNumber(run_.seed) + "}";
  out += ",\"epoch\":{\"epoch\":" + JsonNumber(epoch_.epoch) +
         ",\"max_epochs\":" + JsonNumber(epoch_.max_epochs) +
         ",\"loss\":" + JsonNumber(epoch_.loss) +
         ",\"accuracy\":" + JsonNumber(epoch_.accuracy) +
         ",\"sim_seconds\":" + JsonNumber(epoch_.sim_seconds) +
         ",\"comm_bytes\":" + JsonNumber(epoch_.comm_bytes) + "}";
  out += ",\"he\":{\"encrypts\":" + JsonNumber(he_.encrypts) +
         ",\"decrypts\":" + JsonNumber(he_.decrypts) +
         ",\"hom_adds\":" + JsonNumber(he_.hom_adds) +
         ",\"scalar_muls\":" + JsonNumber(he_.scalar_muls) +
         ",\"values_encrypted\":" + JsonNumber(he_.values_encrypted) +
         ",\"values_decrypted\":" + JsonNumber(he_.values_decrypted) + "}";
  out += ",\"totals\":{\"total_seconds\":" + JsonNumber(totals_.total_seconds) +
         ",\"he_seconds\":" + JsonNumber(totals_.he_seconds) +
         ",\"comm_seconds\":" + JsonNumber(totals_.comm_seconds) +
         ",\"comm_bytes\":" + JsonNumber(totals_.comm_bytes) +
         ",\"comm_messages\":" + JsonNumber(totals_.comm_messages) + "}";
  out += ",\"faults\":{\"injected\":" + JsonNumber(faults_.injected) +
         ",\"drops\":" + JsonNumber(faults_.drops) +
         ",\"duplicates\":" + JsonNumber(faults_.duplicates) +
         ",\"reorders\":" + JsonNumber(faults_.reorders) +
         ",\"corruptions\":" + JsonNumber(faults_.corruptions) +
         ",\"delays\":" + JsonNumber(faults_.delays) + "}";
  out += ",\"channel\":{\"retransmits\":" + JsonNumber(channel_.retransmits) +
         ",\"timeouts\":" + JsonNumber(channel_.timeouts) +
         ",\"crc_failures\":" + JsonNumber(channel_.crc_failures) + "}";
  out += ",\"resilience\":{\"quarantined\":" +
         JsonNumber(resilience_.quarantined) +
         ",\"quarantines\":" + JsonNumber(resilience_.quarantines) +
         ",\"readmits\":" + JsonNumber(resilience_.readmits) +
         ",\"deadline_exceeded\":" + JsonNumber(resilience_.deadline_exceeded) +
         ",\"breaker_open\":" + JsonNumber(resilience_.breaker_open) +
         ",\"breaker_half_open\":" + JsonNumber(resilience_.breaker_half_open) +
         ",\"breaker_trips\":" + JsonNumber(resilience_.breaker_trips) +
         ",\"breaker_fast_fails\":" +
         JsonNumber(resilience_.breaker_fast_fails) + "}";
  out += ",\"trace\":{\"dropped_events\":" + JsonNumber(dropped) + "}";
  out += ",\"server\":{\"requests\":{\"metrics\":" + JsonNumber(s_metrics) +
         ",\"status\":" + JsonNumber(s_status) +
         ",\"trace\":" + JsonNumber(s_trace) +
         ",\"healthz\":" + JsonNumber(s_healthz) +
         ",\"other\":" + JsonNumber(s_other) + "}}";
  out += "}";
  return out;
}

}  // namespace flb::obs
