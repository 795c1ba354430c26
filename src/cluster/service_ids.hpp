// Every RPC service id in the system, in one table.
//
// Node::register_service panics when two handlers claim one id on a node,
// but only in a run that wires both subsystems together. Listing every id
// here, with the static_assert below, makes a collision a compile error.
// Handlers are indexed by id, so keep the numbers small.
#pragma once

#include <cstddef>
#include <iterator>

#include "cluster/cluster.hpp"

namespace hyp::svc {

using cluster::ServiceId;

// dsm::DsmSystem: the home-based Java protocols.
inline constexpr ServiceId kPageRequest = 10;
inline constexpr ServiceId kUpdateFields = 11;  // write-log entries
inline constexpr ServiceId kUpdateRuns = 12;    // twin-diff runs
inline constexpr ServiceId kQuorumRead = 13;    // backup-served page read

// hyperion::MonitorSubsystem.
inline constexpr ServiceId kMonitorEnter = 20;
inline constexpr ServiceId kMonitorExit = 21;
inline constexpr ServiceId kMonitorWait = 22;
inline constexpr ServiceId kMonitorNotify = 23;

// ha::HaManager: the modeled checkpoint stream (docs/RECOVERY.md).
inline constexpr ServiceId kHaCheckpoint = 30;

// dsm::ErcDsm: eager release consistency (ablation baseline).
inline constexpr ServiceId kErcFetch = 40;      // join sharers, get page
inline constexpr ServiceId kErcRelease = 41;    // diffs -> home
inline constexpr ServiceId kErcUpdate = 42;     // home -> sharer
inline constexpr ServiceId kErcUpdateAck = 43;  // sharer -> home

// dsm::SeqDsm: sequential consistency (ablation baseline).
inline constexpr ServiceId kSeqRead = 50;         // read-copy request
inline constexpr ServiceId kSeqWrite = 51;        // exclusive request
inline constexpr ServiceId kSeqRecall = 52;       // home -> owner
inline constexpr ServiceId kSeqInvalidate = 53;   // home -> reader
inline constexpr ServiceId kSeqInvAck = 54;       // reader -> home
inline constexpr ServiceId kSeqRecallReply = 55;  // owner -> home

inline constexpr ServiceId kAll[] = {
    kPageRequest,  kUpdateFields, kUpdateRuns,     kQuorumRead,   kMonitorEnter,
    kMonitorExit,  kMonitorWait,  kMonitorNotify,  kHaCheckpoint, kErcFetch,
    kErcRelease,   kErcUpdate,    kErcUpdateAck,   kSeqRead,      kSeqWrite,
    kSeqRecall,    kSeqInvalidate, kSeqInvAck,     kSeqRecallReply,
};

constexpr bool all_distinct() {
  for (std::size_t i = 0; i < std::size(kAll); ++i) {
    for (std::size_t j = i + 1; j < std::size(kAll); ++j) {
      if (kAll[i] == kAll[j]) return false;
    }
  }
  return true;
}
static_assert(all_distinct(), "two RPC services share an id");

}  // namespace hyp::svc
