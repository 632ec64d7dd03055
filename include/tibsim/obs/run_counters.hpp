#pragma once
// Deterministic per-world accounting rolled up across an experiment. Every
// simMPI world a campaign builds — traced or not — contributes one
// RunCounters record, so campaign artefacts account for all message traffic
// and trace memory, not just the worlds an experiment chose to showcase
// (the imb_suite under-reporting the ROADMAP called out).
//
// Every field is a function of the simulated run (no host clocks). Most
// are also independent of the engine configuration and are serialised into
// the byte-identical campaign JSON/CSV. The payload-pool behaviour fields
// are not: they depend on which per-shard pool parked which buffer, so they
// stay in memory (run summary, benchmark probes) and are never written to
// an artefact or a cache entry. The field comments mark them.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tibsim/obs/critical_path.hpp"
#include "tibsim/obs/link_stats.hpp"

namespace tibsim::obs {

/// Per-size-class payload-pool activity rolled up across worlds (the
/// RunCounters analogue of PayloadPool::ClassStats; index = log2 of the
/// class capacity). classBytes and acquires are serialised into the
/// campaign __worlds.csv class table.
struct PayloadClassCounters {
  std::size_t classBytes = 0;
  std::uint64_t acquires = 0;
  std::uint64_t reuses = 0;       ///< in memory only
  std::uint64_t allocations = 0;  ///< in memory only
  std::uint64_t parked = 0;       ///< in memory only
};

struct RunCounters {
  std::uint64_t worlds = 0;  ///< simMPI worlds accounted
  std::uint64_t messages = 0;
  /// Collective-verifier stamp comparisons (mpi/collective_verify.hpp);
  /// zero unless the runs executed with --verify-collectives.
  std::uint64_t collectiveChecks = 0;
  double payloadBytes = 0.0;
  double wireBytes = 0.0;
  std::uint64_t spansRecorded = 0;  ///< spans seen by trace sinks
  std::uint64_t spansRetained = 0;  ///< spans still resident after the runs
  std::uint64_t traceMemoryPeakBytes = 0;  ///< largest single-world sink
  // Payload memory (see mpi/payload_pool.hpp): how many messages carried
  // real bytes inline vs in a pooled buffer and how many buffers came back
  // (serialised), and whether the pools served sends from warm buffers or
  // had to allocate (in memory only).
  std::uint64_t payloadInlineMessages = 0;
  std::uint64_t payloadPooledMessages = 0;
  std::uint64_t payloadPoolReturns = 0;
  std::uint64_t payloadPoolReuses = 0;          ///< in memory only
  std::uint64_t payloadPoolAllocations = 0;     ///< in memory only
  std::uint64_t payloadPoolTrimmedBuffers = 0;  ///< in memory only
  std::uint64_t payloadPoolLiveHighWater = 0;   ///< in memory only; max over
                                                ///< worlds
  /// Per-class pool activity (grows to the largest class any world used).
  std::vector<PayloadClassCounters> payloadPoolClasses;
  /// Per-link-kind fabric telemetry summed across worlds (net/fabric.hpp).
  LinkStats links;
  /// Sim-time critical-path attribution summed across worlds
  /// (obs/critical_path.hpp); endRank survives only single-world roll-ups.
  CriticalPath criticalPath;

  /// Fold another record into this one. Sums and maxes only, so the total
  /// is order-independent up to floating-point rounding; accumulate in a
  /// canonical order (ExperimentContext does) for byte-determinism.
  void accumulate(const RunCounters& other) {
    worlds += other.worlds;
    messages += other.messages;
    collectiveChecks += other.collectiveChecks;
    payloadBytes += other.payloadBytes;
    wireBytes += other.wireBytes;
    spansRecorded += other.spansRecorded;
    spansRetained += other.spansRetained;
    traceMemoryPeakBytes =
        std::max(traceMemoryPeakBytes, other.traceMemoryPeakBytes);
    payloadInlineMessages += other.payloadInlineMessages;
    payloadPooledMessages += other.payloadPooledMessages;
    payloadPoolReuses += other.payloadPoolReuses;
    payloadPoolAllocations += other.payloadPoolAllocations;
    payloadPoolReturns += other.payloadPoolReturns;
    payloadPoolTrimmedBuffers += other.payloadPoolTrimmedBuffers;
    payloadPoolLiveHighWater =
        std::max(payloadPoolLiveHighWater, other.payloadPoolLiveHighWater);
    if (payloadPoolClasses.size() < other.payloadPoolClasses.size())
      payloadPoolClasses.resize(other.payloadPoolClasses.size());
    for (std::size_t c = 0; c < other.payloadPoolClasses.size(); ++c) {
      PayloadClassCounters& mine = payloadPoolClasses[c];
      const PayloadClassCounters& theirs = other.payloadPoolClasses[c];
      if (mine.classBytes == 0) mine.classBytes = theirs.classBytes;
      mine.acquires += theirs.acquires;
      mine.reuses += theirs.reuses;
      mine.allocations += theirs.allocations;
      mine.parked += theirs.parked;
    }
    links.accumulate(other.links);
    criticalPath.accumulate(other.criticalPath);
  }
};

}  // namespace tibsim::obs
