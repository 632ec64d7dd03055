#pragma once
// Conservative (lookahead / null-message) synchronisation for sharded
// logical-process simulation.
//
// A world partitioned at switch-subtree cut points becomes a set of shard
// Simulations (each with its own event queue and fiber scheduler) plus one
// ShardScheduler driving them in *windows*: every shard may safely dispatch
// all events strictly below
//
//     windowEnd = min(earliest event over all shards) + lookahead
//
// because any event one shard can cause in another is delayed by at least
// the inter-shard link latency (the lookahead bound, taken from the fabric
// topology — see net::Fabric::lookaheadSeconds). Every event is keyed by
// its pusher's own state (simulation.hpp), so each shard dispatches its
// events in exactly the order one queue would: one order by construction,
// with nothing to reconstruct. After each window a serial barrier runs the
// side effects several shards feed — fabric occupancy and the arrival
// pushes it decides, trace spans — sorted by the key of the dispatch that
// caused them, which is the order one queue ran them in. That keeps
// campaign artefacts byte-identical for any shard count.
//
// Windows are microseconds of simulated time, so the fork-join must cost
// far less than a thread wake. A window whose work is spread over shards —
// at least two shards with kFanoutMinEvents or more events queued below
// its end — runs on a dedicated gang of spin-then-poll workers owned by
// the scheduler: the gang spins briefly across the serial barrier (staying
// hot through communication bursts) and parks, polling, through long runs
// of other windows. Those run inline on the calling thread, shard after
// shard: most multi-shard windows hold one to three events per shard,
// which a hand-off would cost more than it saves. On a
// single-core host the gang is empty and every window runs inline —
// sharding then costs only the barrier. The window bounds, the barriers
// and the merge never depend on which thread ran a window, so the schedule
// (hence every artefact) is identical either way.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "tibsim/common/unique_function.hpp"
#include "tibsim/sim/simulation.hpp"

namespace tibsim::sim {

/// Process-wide default shard count used by WorldConfig. Initialised once
/// from the TIBSIM_SIM_SHARDS environment variable; 1 (single-queue legacy
/// engine) when unset or unparsable. Values are clamped to [1, 1024].
int defaultSimShards();
void setDefaultSimShards(int shards);

/// RAII override of the process-wide default shard count (tests, campaigns).
class ScopedSimShards {
 public:
  explicit ScopedSimShards(int shards) : previous_(defaultSimShards()) {
    setDefaultSimShards(shards);
  }
  ~ScopedSimShards() { setDefaultSimShards(previous_); }
  ScopedSimShards(const ScopedSimShards&) = delete;
  ScopedSimShards& operator=(const ScopedSimShards&) = delete;

 private:
  int previous_;
};

/// Queued events a shard needs below a window's end to count toward fanning
/// the window out. Chosen by a sweep (EXPERIMENTS.md, "Shard-gang
/// fan-out"): the largest value that keeps the 8,192-rank ARMv8 cell's
/// wall-clock at four shards, where even small windows gain from the gang;
/// scale_bigcluster at two shards would save more CPU at 16-32.
inline constexpr std::size_t kFanoutMinEvents = 4;

/// The fan-out rule. `queued[i]` is the number of events active shard i has
/// queued below the window's end (a count capped at kFanoutMinEvents
/// suffices). True when at least two shards reach kFanoutMinEvents: only
/// then is there enough work on more than one thread to pay for the
/// hand-off.
bool fanOutWindow(std::span<const std::size_t> queued);

/// The window loop plus the *only* sanctioned channel for putting events
/// into another shard's queue. Shards are registered non-owning; a shard
/// that has been torn down (teardownShard) rejects channel traffic with a
/// contract violation — routing a rank to a dead shard is a bug in the
/// partitioning policy, never something to paper over.
class ShardScheduler {
 public:
  /// `lookaheadSeconds` must be positive: a zero-latency fabric has no
  /// conservative window and the world must fall back to one shard.
  explicit ShardScheduler(double lookaheadSeconds);
  ~ShardScheduler();

  ShardScheduler(const ShardScheduler&) = delete;
  ShardScheduler& operator=(const ShardScheduler&) = delete;

  /// Register a shard; index = registration order. The scheduler does not
  /// take ownership.
  std::size_t addShard(Simulation* shard);

  /// Detach a shard (teardown). Channel pushes to it become contract
  /// violations; the window loop skips it.
  void teardownShard(std::size_t shard);

  std::size_t shardCount() const { return shards_.size(); }
  double lookaheadSeconds() const { return lookahead_; }
  Simulation& shard(std::size_t index);

  /// Cross-shard channel: push a callback that runs for `owner` into
  /// `dstShard`, keyed by the slot its causing dispatch reserved
  /// (Simulation::reservePush). Call only from the serial window barrier.
  void channelPush(std::size_t dstShard, double t,
                   const Simulation::PushSlot& slot, Simulation::Owner owner,
                   UniqueFunction fn);

  /// Drive windows until every shard's queue drains and a final barrier
  /// flushes nothing. `barrier` runs serially on the calling thread after
  /// every window (replay the side effects shards deferred). Returns the
  /// final simulated time (max over shards).
  double run(const std::function<void()>& barrier);

  std::uint64_t windowsRun() const { return windowsRun_; }
  /// Windows with at least two active shards.
  std::uint64_t parallelWindowsRun() const { return parallelWindowsRun_; }
  /// Windows handed to the worker gang (the rest ran inline).
  std::uint64_t fanoutWindowsRun() const { return fanoutWindowsRun_; }

  /// Gang participants for this scheduler (calling thread included):
  /// min(shards, hardware cores), or the TIBSIM_SHARD_THREADS override
  /// (clamped to [1, shards]). Setting the override also fans out every
  /// window with two or more active shards, whatever its size — tests and
  /// CI force real cross-thread windows on small hosts with it.
  std::size_t gangParticipants() const;

 private:
  void startGang();
  void stopGang();
  void gangLoop();
  /// Run one shard's window, keeping its exception for the caller.
  void runShard(std::size_t shard);
  /// Claim and run shards of fanned window `epoch` until none is left
  /// (shared by workers and the caller).
  void runClaimedShards(std::uint64_t epoch);
  /// fanOutWindow over the active shards' queues below windowEnd_.
  bool worthFanningOut();

  double lookahead_;
  std::vector<Simulation*> shards_;
  std::vector<std::size_t> active_;  ///< scratch: shards busy this window
  std::vector<std::size_t> queued_;  ///< scratch: capped counts per active
  std::uint64_t windowsRun_ = 0;
  std::uint64_t parallelWindowsRun_ = 0;
  std::uint64_t fanoutWindowsRun_ = 0;
  /// TIBSIM_SHARD_THREADS is set: every multi-shard window goes to the gang.
  bool fanOutEveryWindow_ = false;

  // Window gang. For a fanned window the caller publishes active_ and
  // windowEnd_ with a new claim word (epoch, shard count, next index) and
  // takes part; whoever claims a shard through the word runs it and counts
  // it in doneShards_. The caller waits for every shard, never for a
  // worker, and never wakes one: workers spin ~hundreds of µs between
  // fanned windows, then park and poll for the next one.
  double windowEnd_ = 0.0;  ///< published by the claim word's store
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<std::size_t> doneShards_{0};
  std::atomic<bool> gangStop_{false};
  std::mutex gangMutex_;
  std::condition_variable gangWake_;
  std::exception_ptr gangError_;  ///< first window exception (gangMutex_)
  std::vector<std::thread> gang_;  ///< last: its threads use the above
};

}  // namespace tibsim::sim
