// Party naming shared by the federated trainers.

#ifndef FLB_FL_TRAINER_UTIL_H_
#define FLB_FL_TRAINER_UTIL_H_

#include <string>

namespace flb::fl {

inline std::string PartyName(int p) { return "party" + std::to_string(p); }
inline constexpr char kServerName[] = "server";
inline constexpr char kGuestName[] = "guest";
inline constexpr char kArbiterName[] = "arbiter";
inline std::string HostName(int h) { return "host" + std::to_string(h); }

}  // namespace flb::fl

#endif  // FLB_FL_TRAINER_UTIL_H_
