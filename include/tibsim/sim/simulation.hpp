#pragma once
// Discrete-event simulation engine.
//
// tibsim runs distributed applications (real control flow, modelled costs)
// against simulated hardware. Application code executes inside cooperative
// `Process`es scheduled one-at-a-time by the event loop; each process runs
// on its own user-space fiber (ExecutionContext, see execution_context.hpp).
// Exactly one party — the scheduler or a single process — runs at any
// moment, giving deterministic, data-race-free simulation while letting
// application code be written as straight-line code (SimGrid-style)
// instead of event callbacks.
//
// Time is a double in seconds. Every event carries an ordering key
//
//     (t, depth, owner, seq)
//
// computed where it is pushed from the pusher's own state. `owner` is the
// process the pushing dispatch runs for (a rank, in simMPI; callbacks name
// the process they run for). `seq` orders one owner's pushes by push order:
// an owner pushes only inside its own Simulation, so one sequence per
// Simulation serves every owner. `depth` counts zero-delay pushes at one
// timestamp: a push at now() goes one level deeper than the dispatch that
// made it, so a pushed key is always greater than its pusher's and
// dispatch order is key order. No part of the key depends on what other
// processes share the queue, so a shard of a partitioned world
// (shard_scheduler.hpp) orders its events exactly as one queue would: one
// order at every shard count, by construction. Consequences:
//  * pushes by one owner at one timestamp fire in push order (FIFO);
//  * pushes from the host (outside any dispatch) share one owner, so they
//    fire in push order too; a host push on behalf of a process (spawn,
//    resume) is keyed by that process.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tibsim/common/unique_function.hpp"
#include "tibsim/sim/engine_stats.hpp"
#include "tibsim/sim/execution_context.hpp"

namespace tibsim::sim {

class Simulation;

/// Thrown inside a process body when the simulation is torn down while the
/// process is still blocked; unwinds the fiber stack. Never catch it.
class ProcessKilled {};

/// A cooperative simulation process. Created via Simulation::spawn; the
/// body receives a reference to its Process and may call delay()/suspend().
class Process {
 public:
  using Body = std::function<void(Process&)>;

  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Advance simulated time by dt seconds (dt >= 0). Callable only from
  /// inside this process's body.
  void delay(double dt);

  /// Block until another party calls Simulation::resume on this process.
  /// Callable only from inside this process's body.
  void suspend();

  /// Current simulated time, in seconds.
  double now() const;

  Simulation& simulation() { return sim_; }
  const std::string& name() const { return name_; }
  std::uint64_t id() const { return id_; }
  bool finished() const { return finished_; }
  /// True while the process is suspended waiting for an external resume.
  bool suspended() const { return suspended_; }
  /// Identifier of the current (or most recent) suspension; resumes are
  /// tagged with this so stale wake-ups cannot disturb a later suspension.
  std::uint64_t suspendId() const { return suspendSeq_; }
  /// Exception that escaped the body, if any (rethrow with std::rethrow).
  std::exception_ptr exception() const { return exception_; }

 private:
  friend class Simulation;
  Process(Simulation& sim, std::uint64_t id, std::string name, Body body);

  void start(std::size_t stackBytes, bool pooledStack);
  void switchIn();      // scheduler -> process; blocks scheduler until yield
  void yieldToHost();   // process -> scheduler
  void kill();          // request ProcessKilled unwind and run it to the end
  std::uint64_t beginSuspend();  // mark suspended, mint a suspension id

  Simulation& sim_;
  std::uint64_t id_;
  std::string name_;
  Body body_;

  std::unique_ptr<ExecutionContext> context_;
  bool finished_ = false;
  std::exception_ptr exception_;
  bool killRequested_ = false;
  bool suspended_ = false;
  std::uint64_t suspendSeq_ = 0;
};

/// Ordering key of a queued event, and of the dispatch that runs it:
/// (t, depth, owner, seq), see the file comment. Unique per event.
struct EventKey {
  double t = 0.0;
  std::uint64_t ord1 = 0;  ///< equal-time depth << 32 | pushing owner
  std::uint64_t ord2 = 0;  ///< seq: orders one owner's pushes

  std::uint32_t depth() const { return static_cast<std::uint32_t>(ord1 >> 32); }
  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.ord1 != b.ord1) return a.ord1 < b.ord1;
    return a.ord2 < b.ord2;
  }
};

/// The event loop: a time-ordered queue of callbacks plus the set of spawned
/// processes. Not thread-safe: drive it from a single thread.
class Simulation {
 public:
  /// Who an event runs for: a process id, or kHost.
  using Owner = std::uint32_t;
  /// The owner of pushes made outside any dispatch, and of the callbacks
  /// they schedule.
  static constexpr Owner kHost = ~Owner{0};

  /// A push position taken by the running dispatch (reservePush) and spent
  /// later by scheduleChannel: the cross-shard channel keys its event as if
  /// the dispatch had pushed it there and then.
  struct PushSlot {
    EventKey from;            ///< key of the dispatch that took the slot
    Owner owner = 0;          ///< the owner that dispatch runs for
    std::uint64_t seq = 0;    ///< the push sequence number it took
  };

  /// `stackBytes` sizes each process's fiber stack; 0 means the engine
  /// default (TIBSIM_FIBER_STACK_KB or 256 KiB). Process ids count up from
  /// `firstProcessId`: a shard of a partitioned world starts at its first
  /// rank, so ids (and keys) are global ranks at every shard count.
  explicit Simulation(std::size_t stackBytes = 0, Owner firstProcessId = 0)
      : stackBytes_(stackBytes),
        firstProcessId_(firstProcessId),
        nextProcessId_(firstProcessId) {}
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  double now() const { return now_; }

  /// Configured per-process stack size (0 = engine default).
  std::size_t stackBytes() const { return stackBytes_; }

  /// When enabled, fiber processes lease their stacks from the process-wide
  /// slab arena instead of mmap'ing private guarded stacks (2 kernel VMAs
  /// each — a 65,536-rank world would exceed vm.max_map_count). Worlds turn
  /// this on at/above kPooledStacksMinRanks. Call before the first spawn.
  void setPooledStacks(bool on) { pooledStacks_ = on; }
  bool pooledStacks() const { return pooledStacks_; }

  /// Schedule a callback at absolute time t (>= now()). It runs for the
  /// owner of the running dispatch (kHost outside one). The callback type
  /// is move-only (UniqueFunction): closures of up to kInlineBytes (32) —
  /// message delivery, process wake-ups — are stored inline, and larger
  /// ones take one heap allocation, as do the MPI data-arrival and
  /// CTS-resume closures that carry a critical-path snapshot.
  void scheduleAt(double t, UniqueFunction fn);

  /// scheduleAt for a callback that runs for process `owner` (whose
  /// further pushes it keys): e.g. a message delivery runs for the
  /// receiving rank. `owner` must be a process of this Simulation.
  void scheduleFor(Owner owner, double t, UniqueFunction fn);

  /// Schedule a callback dt seconds from now (dt >= 0).
  void scheduleIn(double dt, UniqueFunction fn);

  /// Create a process and schedule it to start at the current time.
  Process& spawn(std::string name, Process::Body body);

  /// Wake a suspended process at time t (>= now()).
  void resumeAt(double t, Process& p);

  /// Wake a suspended process at the current time (after the running
  /// dispatch and every event already queued at this timestamp and depth).
  void resume(Process& p);

  /// Run until the event queue drains. Returns the final simulation time.
  double run();

  /// Run until the event queue drains or time would exceed `deadline`.
  double runUntil(double deadline);

  // -- sharded worlds -------------------------------------------------------
  // See shard_scheduler.hpp for the window loop that drives these. Keys
  // need no translation between shards; what crosses a window barrier is
  // the key of the dispatch a side effect came from (currentKey,
  // reservePush).

  bool hasEvents() const { return !queue_.empty(); }
  /// Timestamp of the earliest queued event. Requires hasEvents().
  double nextEventTime() const;
  /// Queued events with timestamp strictly below `t`, counting no further
  /// than `cap`. Visits only the heap's top region below `t`, so it costs
  /// O(cap) whatever the queue size (the shard scheduler's fan-out test).
  std::size_t queuedBefore(double t, std::size_t cap) const {
    return queue_.countBefore(0, t, cap);
  }

  /// Dispatch every event with t strictly below `windowEnd` (the
  /// conservative-synchronisation window bound); returns the number of
  /// events dispatched. Does not measure host time — the shard scheduler
  /// accounts wall-clock once for the whole window loop.
  std::uint64_t runWindow(double windowEnd);

  /// Key of the running dispatch. A window barrier replays side effects
  /// that several shards feed (fabric occupancy, trace spans) sorted by
  /// the key of the dispatch that caused them: one queue's order.
  const EventKey& currentKey() const { return current_; }

  /// Take the running dispatch's next push position for a push that
  /// happens later, at a window barrier (scheduleChannel). Call only from
  /// inside a dispatch.
  PushSlot reservePush();

  /// Barrier-side push of a callback that runs for `owner`, keyed by a
  /// slot reserved in the dispatch that caused it. Used only by the
  /// cross-shard channel, never from inside a dispatch.
  void scheduleChannel(double t, const PushSlot& slot, Owner owner,
                       UniqueFunction fn);

  /// Pre-size the event queue (e.g. to ~4x the expected process count).
  void reserveEvents(std::size_t n) {
    queue_.reserve(n);
    closures_.reserve(n);
  }

  std::size_t liveProcessCount() const;
  std::uint64_t processedEvents() const { return stats_.eventsDispatched; }

  /// Engine observability counters accumulated so far (simSeconds = now()).
  EngineStats engineStats() const;

 private:
  friend class Process;

  /// One queued event, 40 trivially-copyable bytes: the binary-heap sift
  /// moves entries by value, so keeping closures out of the heap (and the
  /// entry POD) is what makes push/pop cheap. A process wake-up — the
  /// dominant event type, one per delay()/resume() — is encoded directly as
  /// (proc, suspendSeq tag) and runs for that process; callback events set
  /// proc to nullptr and pack the owner they run for and their slot in
  /// the closure slab into `aux`.
  struct Event {
    EventKey key;
    Process* proc;       ///< non-null: wake this process
    std::uint64_t aux;   ///< proc ? suspension tag : owner << 32 | slot
  };

  /// Explicit binary min-heap over a reserved vector, ordered by key.
  /// Unlike std::priority_queue it hands out the popped element by value
  /// (no const_cast of top()) and exposes its size for high-water
  /// tracking.
  class EventQueue {
   public:
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    void reserve(std::size_t n) { heap_.reserve(n); }
    const Event& top() const { return heap_.front(); }
    /// Entries below time `t` in the subtree rooted at heap slot `i`,
    /// counting at most `cap`. Heap order puts every such entry in one
    /// connected region at the subtree's root, so the walk stops at the
    /// first entry at or past `t` on each path.
    std::size_t countBefore(std::size_t i, double t, std::size_t cap) const;
    void push(Event ev);
    Event pop();

   private:
    std::vector<Event> heap_;
  };

  void dispatch(const Event& ev);
  std::uint32_t stashClosure(UniqueFunction fn);
  void noteContextSwitch() { ++stats_.contextSwitches; }
  void noteProcessFinished(Process& p);
  /// The next push position: the running dispatch's owner's, or, from the
  /// host, `hostOwner`'s (the process a host push is made for, or kHost).
  PushSlot takeSlot(Owner hostOwner);
  /// The one push path: key the event from `slot` and queue it.
  void pushQueue(double t, const PushSlot& slot, Process* proc,
                 std::uint64_t aux);
  /// A callback may run only for the host or a process of this Simulation:
  /// an owner's pushes must all happen in one queue.
  bool mayRunFor(Owner owner) const {
    return owner == kHost ||
           (owner >= firstProcessId_ && owner < nextProcessId_);
  }

  double now_ = 0.0;
  std::size_t stackBytes_ = 0;
  bool pooledStacks_ = false;
  Owner firstProcessId_ = 0;
  Owner nextProcessId_ = 0;
  std::size_t liveNow_ = 0;
  EngineStats stats_;
  EventQueue queue_;
  // The running dispatch (dispatching_): its key and the owner it runs for.
  bool dispatching_ = false;
  EventKey current_;
  Owner runsFor_ = kHost;
  /// Every push's `seq`. Only one owner's pushes ever compare on it, and
  /// they all happen in that owner's Simulation, so one sequence for all
  /// owners orders them as a per-owner count would.
  std::uint64_t pushSeq_ = 0;
  // Closure slab for callback events; slots are recycled LIFO, so a steady
  // stream of scheduleIn() calls reuses the same few slots with no
  // allocator traffic.
  std::vector<UniqueFunction> closures_;
  std::vector<std::uint32_t> freeClosureSlots_;
  std::vector<std::unique_ptr<Process>> processes_;
};

}  // namespace tibsim::sim
