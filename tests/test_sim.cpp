// Tests for the discrete-event engine: ordering, process semantics,
// determinism, teardown, exception capture, engine stats, fiber stacks.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "scoped_env.hpp"
#include "tibsim/common/assert.hpp"
#include "tibsim/sim/shard_scheduler.hpp"
#include "tibsim/sim/simulation.hpp"

namespace tibsim::sim {
namespace {

// Process name "p<i>", built by appending: GCC 12 at -O3 reports a false
// -Wrestrict on the prepending `"p" + std::to_string(i)`.
std::string procName(int i) {
  std::string name = "p";
  name += std::to_string(i);
  return name;
}

// Which host thread drives the engine. Processes are always spawned, and
// the engine always torn down, on the test's own thread. `Worker` runs
// run()/runUntil() on a fresh thread instead: the hand-over a shard gang
// makes when its worker threads resume a shard's fibers. The instances
// keep the suite's established names, "fiber" and "thread".
enum class Host { Caller, Worker };

class SimulationTest : public ::testing::TestWithParam<Host> {
 protected:
  void drive(Simulation& sim) const {
    onHost([&] { sim.run(); });
  }
  void driveUntil(Simulation& sim, double deadline) const {
    onHost([&] { sim.runUntil(deadline); });
  }

 private:
  template <class Fn>
  void onHost(Fn&& fn) const {
    if (GetParam() == Host::Caller) {
      fn();
      return;
    }
    std::exception_ptr error;
    std::thread worker([&] {
      try {
        fn();
      } catch (...) {
        error = std::current_exception();
      }
    });
    worker.join();
    if (error) std::rethrow_exception(error);
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, SimulationTest,
                         ::testing::Values(Host::Caller, Host::Worker),
                         [](const auto& paramInfo) {
                           return std::string(paramInfo.param == Host::Caller
                                                  ? "fiber"
                                                  : "thread");
                         });

TEST_P(SimulationTest, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.scheduleAt(3.0, [&] { order.push_back(3); });
  sim.scheduleAt(1.0, [&] { order.push_back(1); });
  sim.scheduleAt(2.0, [&] { order.push_back(2); });
  drive(sim);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST_P(SimulationTest, EqualTimestampsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.scheduleAt(1.0, [&order, i] { order.push_back(i); });
  drive(sim);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

// The key contract (simulation.hpp): a push is keyed by the owner its
// pushing dispatch runs for, and a push at now() sorts one depth level
// below that dispatch. Here process 3 schedules C to run for process 0 at
// t = 1, and process 4 schedules E at t = 1, keyed after C. When C pushes P
// at now(), P is keyed by owner 0, below C's and E's owners at depth 0;
// the extra depth level is what keeps P after C and E, and every
// dispatched key above the one before it.
TEST_P(SimulationTest, ZeroDelayPushFiresAfterTheDispatchThatMadeIt) {
  Simulation sim;
  std::vector<std::string> order;
  std::vector<EventKey> keys;
  const auto note = [&](const char* name) {
    order.emplace_back(name);
    keys.push_back(sim.currentKey());
  };
  for (int i = 0; i < 5; ++i) {
    sim.spawn(procName(i), [&, i](Process&) {
      if (i == 3) {
        sim.scheduleFor(0, 1.0, [&] {
          note("C");
          sim.scheduleAt(sim.now(), [&] { note("P"); });
        });
      }
      if (i == 4) sim.scheduleAt(1.0, [&] { note("E"); });
    });
  }
  drive(sim);
  EXPECT_EQ(order, (std::vector<std::string>{"C", "E", "P"}));
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_TRUE(keys[0] < keys[1] && keys[1] < keys[2]);
  EXPECT_EQ(keys[2].depth(), keys[0].depth() + 1);
}

// Pushes by one owner fire in push order at equal timestamps, whatever
// dispatch made them; another owner's pushes order by owner id.
TEST_P(SimulationTest, SameOwnerPushesAreFifo) {
  Simulation sim;
  std::vector<std::string> order;
  const auto push = [&](const std::string& name) {
    sim.scheduleAt(2.0, [&order, name] { order.push_back(name); });
  };
  sim.spawn(procName(0), [&](Process& p) {
    push("a1");
    push("a2");
    p.delay(1.0);
    push("a3");
    p.delay(1.0);  // wakes at t = 2, after a3: owner 0 pushed it later
    push("a4");    // pushes at now() go one depth level deeper, so they
    push("a5");    // trail b1 and b2 too
  });
  sim.spawn(procName(1), [&](Process&) {
    push("b1");
    push("b2");
  });
  drive(sim);
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "a2", "a3", "b1", "b2",
                                             "a4", "a5"}));
}

TEST_P(SimulationTest, SchedulingInThePastThrows) {
  Simulation sim;
  sim.scheduleAt(5.0, [] {});
  drive(sim);
  EXPECT_THROW(sim.scheduleAt(1.0, [] {}), ContractError);
}

TEST_P(SimulationTest, EventsCanScheduleMoreEvents) {
  Simulation sim;
  int fired = 0;
  sim.scheduleAt(1.0, [&] {
    ++fired;
    sim.scheduleIn(1.0, [&] { ++fired; });
  });
  drive(sim);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST_P(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.scheduleAt(1.0, [&] { ++fired; });
  sim.scheduleAt(10.0, [&] { ++fired; });
  driveUntil(sim, 5.0);
  EXPECT_EQ(fired, 1);
  drive(sim);
  EXPECT_EQ(fired, 2);
}

TEST_P(SimulationTest, DelayAdvancesSimTime) {
  Simulation sim;
  double observed = -1.0;
  sim.spawn("p", [&](Process& p) {
    p.delay(2.5);
    observed = p.now();
  });
  drive(sim);
  EXPECT_DOUBLE_EQ(observed, 2.5);
  EXPECT_EQ(sim.liveProcessCount(), 0u);
}

TEST_P(SimulationTest, MultipleProcessesInterleaveByTime) {
  Simulation sim;
  std::vector<std::string> log;
  sim.spawn("a", [&](Process& p) {
    p.delay(1.0);
    log.push_back("a1");
    p.delay(2.0);  // wakes at 3.0
    log.push_back("a3");
  });
  sim.spawn("b", [&](Process& p) {
    p.delay(2.0);
    log.push_back("b2");
  });
  drive(sim);
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "b2", "a3"}));
}

TEST_P(SimulationTest, SuspendResumeHandshake) {
  Simulation sim;
  std::vector<std::string> log;
  Process* waiterPtr = nullptr;
  auto& waiter = sim.spawn("waiter", [&](Process& p) {
    log.push_back("waiting");
    p.suspend();
    log.push_back("woken at " + std::to_string(static_cast<int>(p.now())));
  });
  waiterPtr = &waiter;
  sim.spawn("waker", [&](Process& p) {
    p.delay(5.0);
    p.simulation().resume(*waiterPtr);
  });
  drive(sim);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1], "woken at 5");
}

TEST_P(SimulationTest, StaleWakeupsAreDropped) {
  // Two resumes target the same suspended process; the second must not
  // disturb it after it has moved on into a delay.
  Simulation sim;
  double finishTime = 0.0;
  auto& target = sim.spawn("t", [&](Process& p) {
    p.suspend();          // woken at t=1 by first resume
    p.delay(10.0);        // a stale resume at t=1 must not cut this short
    finishTime = p.now();
  });
  sim.scheduleAt(1.0, [&] {
    sim.resume(target);
    sim.resume(target);  // stale duplicate
  });
  drive(sim);
  EXPECT_DOUBLE_EQ(finishTime, 11.0);
}

TEST_P(SimulationTest, NegativeDelayThrows) {
  Simulation sim;
  sim.spawn("p", [&](Process& p) { p.delay(-1.0); });
  drive(sim);
  // The exception is captured on the process and visible afterwards.
  std::size_t withException = 0;
  // run() drained; the process finished with a stored exception.
  EXPECT_EQ(sim.liveProcessCount(), 0u);
  (void)withException;
}

TEST_P(SimulationTest, ExceptionsAreCaptured) {
  Simulation sim;
  auto& p = sim.spawn("thrower", [](Process&) {
    throw std::runtime_error("boom");
  });
  drive(sim);
  ASSERT_NE(p.exception(), nullptr);
  EXPECT_THROW(std::rethrow_exception(p.exception()), std::runtime_error);
}

TEST_P(SimulationTest, TeardownWithBlockedProcessesDoesNotHang) {
  auto sim = std::make_unique<Simulation>();
  sim->spawn("stuck", [](Process& p) { p.suspend(); });
  drive(*sim);  // drains with the process still suspended
  EXPECT_EQ(sim->liveProcessCount(), 1u);
  sim.reset();  // must unwind and join cleanly
  SUCCEED();
}

// Satellite regression: destroying a Simulation while a process is blocked
// in delay() must unwind the process stack via ProcessKilled so that local
// destructors run (the body's frames own real resources: payload buffers,
// trace spans, RAII guards).
TEST_P(SimulationTest, KillRunsDestructorsWhileBlockedInDelay) {
  struct Sentinel {
    int* counter;
    explicit Sentinel(int* c) : counter(c) {}
    ~Sentinel() { ++*counter; }
  };
  int destroyed = 0;
  auto sim = std::make_unique<Simulation>();
  sim->spawn("blocked-in-delay", [&](Process& p) {
    Sentinel outer(&destroyed);
    {
      Sentinel inner(&destroyed);
      p.delay(100.0);  // the wake-up event is beyond the runUntil deadline
    }
    ADD_FAILURE() << "body must not resume after teardown";
  });
  driveUntil(*sim, 1.0);  // starts the body, which parks inside delay(100)
  ASSERT_EQ(destroyed, 0);
  ASSERT_EQ(sim->liveProcessCount(), 1u);
  sim.reset();  // ProcessKilled unwinds both frames
  EXPECT_EQ(destroyed, 2);
}

// Same teardown contract for a recv-style suspension (suspend() with no
// resume scheduled at all — the shape of a rank blocked in MPI recv).
TEST_P(SimulationTest, KillRunsDestructorsWhileSuspended) {
  struct Sentinel {
    int* counter;
    explicit Sentinel(int* c) : counter(c) {}
    ~Sentinel() { ++*counter; }
  };
  int destroyed = 0;
  auto sim = std::make_unique<Simulation>();
  sim->spawn("blocked-in-recv", [&](Process& p) {
    Sentinel s(&destroyed);
    p.suspend();
    ADD_FAILURE() << "body must not resume after teardown";
  });
  drive(*sim);
  ASSERT_EQ(destroyed, 0);
  sim.reset();
  EXPECT_EQ(destroyed, 1);
}

// A process exception recorded during the run must survive the teardown of
// other still-blocked processes and be rethrowable on the host thread.
TEST_P(SimulationTest, ExceptionRethrowsOnHostAfterTeardown) {
  std::exception_ptr captured;
  {
    Simulation sim;
    auto& thrower = sim.spawn("thrower", [](Process& p) {
      p.delay(0.5);
      throw std::runtime_error("boom at t=0.5");
    });
    sim.spawn("stuck", [](Process& p) { p.suspend(); });
    drive(sim);
    ASSERT_NE(thrower.exception(), nullptr);
    captured = thrower.exception();
    EXPECT_EQ(sim.liveProcessCount(), 1u);
  }  // teardown kills "stuck" while captured is still alive
  ASSERT_NE(captured, nullptr);
  EXPECT_THROW(std::rethrow_exception(captured), std::runtime_error);
}

// A process spawned but never started (its start event still queued) must
// tear down cleanly: the kill must not run the body.
TEST_P(SimulationTest, TeardownBeforeFirstDispatchSkipsBody) {
  bool bodyRan = false;
  {
    Simulation sim;
    sim.spawn("never-started", [&](Process&) { bodyRan = true; });
    // No run(): the start event never fires.
  }
  EXPECT_FALSE(bodyRan);
}

TEST_P(SimulationTest, DeterministicAcrossRuns) {
  auto runOnce = [this] {
    Simulation sim;
    std::vector<double> times;
    for (int i = 0; i < 5; ++i) {
      sim.spawn(procName(i), [&times, i](Process& p) {
        p.delay(0.1 * (i + 1));
        times.push_back(p.now());
        p.delay(0.05);
        times.push_back(p.now());
      });
    }
    drive(sim);
    return times;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

TEST_P(SimulationTest, ManyProcessesComplete) {
  Simulation sim;
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    sim.spawn("p", [&done, i](Process& p) {
      p.delay(0.001 * i);
      ++done;
    });
  }
  drive(sim);
  EXPECT_EQ(done, 200);
  EXPECT_GE(sim.processedEvents(), 400u);
}

TEST_P(SimulationTest, EngineStatsCountTheMachinery) {
  Simulation sim;
  for (int i = 0; i < 3; ++i) {
    sim.spawn(procName(i), [](Process& p) {
      p.delay(1.0);
      p.delay(1.0);
    });
  }
  drive(sim);
  const EngineStats stats = sim.engineStats();
  // 3 start events + 3 x 2 delay wake-ups.
  EXPECT_EQ(stats.eventsDispatched, 9u);
  // Each dispatched event switches into exactly one process here.
  EXPECT_EQ(stats.contextSwitches, 9u);
  EXPECT_EQ(stats.processesSpawned, 3u);
  EXPECT_EQ(stats.peakLiveProcesses, 3u);
  EXPECT_GE(stats.queueHighWater, 3u);
  EXPECT_DOUBLE_EQ(stats.simSeconds, 2.0);
  EXPECT_EQ(sim.processedEvents(), stats.eventsDispatched);
}

TEST(StackAutoSizing, RecommendedStackBytesIsTwiceHwmPageRounded) {
  const std::size_t page = pageBytes();
  ASSERT_GT(page, 0u);
  // No telemetry -> keep the default.
  EXPECT_EQ(recommendedStackBytes(0), 0u);
  // Tiny high-water marks floor at the minimum usable stack.
  EXPECT_EQ(recommendedStackBytes(1), kMinFiberStackBytes);
  EXPECT_EQ(recommendedStackBytes(kMinFiberStackBytes / 2 - 1),
            kMinFiberStackBytes);
  // Above the floor: 2x the high-water mark, rounded up to a whole page.
  const std::size_t hwm = 5 * page + 123;
  const std::size_t rec = recommendedStackBytes(hwm);
  EXPECT_GE(rec, 2 * hwm);
  EXPECT_LT(rec, 2 * hwm + page);
  EXPECT_EQ(rec % page, 0u);
  // An exact page multiple does not get an extra page.
  EXPECT_EQ(recommendedStackBytes(4 * page), 8 * page);
}

TEST(StackAutoSizing, ProbeTelemetryFeedsARunnableRecommendation) {
  // The probe-then-sweep pattern end-to-end at engine level: measure a
  // workload's fiber stack high-water mark, then rerun the same workload
  // on stacks sized from the telemetry.
  const auto workload = [](Simulation& sim) {
    for (int i = 0; i < 8; ++i) {
      sim.spawn(procName(i), [](Process& p) {
        volatile char frame[2048];
        frame[0] = 1;
        frame[sizeof(frame) - 1] = 1;
        p.delay(1.0);
      });
    }
    sim.run();
  };
  Simulation probe;
  workload(probe);
  const std::size_t hwm = probe.engineStats().stackHighWaterBytes;
  ASSERT_GT(hwm, 0u);
  const std::size_t sized = recommendedStackBytes(hwm);
  ASSERT_GE(sized, kMinFiberStackBytes);
  ASSERT_LT(sized, ExecutionContext::defaultStackBytes());
  Simulation sweep(sized);
  workload(sweep);
  EXPECT_EQ(sweep.engineStats().fiberStackBytes, sized);
  EXPECT_LE(sweep.engineStats().stackHighWaterBytes, sized);
}

// Guard-page containment: a fiber that overruns its stack must fault on
// the PROT_NONE guard page (killing the process) instead of silently
// scribbling over a neighbouring fiber's stack.
TEST(FiberGuardPageDeathTest, OverflowFaultsOnGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        struct Overflow {
          // Non-tail recursion (the frame is read after the recursive call)
          // so the compiler cannot collapse it into a loop; noinline keeps
          // each level's 1 KiB frame on the fiber stack.
          __attribute__((noinline)) static int recurse(int depth) {
            volatile char frame[1024];
            frame[0] = static_cast<char>(depth);
            if (depth <= 0) return frame[0];
            const int below = recurse(depth - 1);
            frame[sizeof(frame) - 1] = static_cast<char>(below);
            return frame[0] + frame[sizeof(frame) - 1];
          }
        };
        Simulation sim(kMinFiberStackBytes);
        // 64 x 1 KiB frames overrun the 16 KiB minimum stack well before
        // the recursion bottoms out.
        sim.spawn("overflow", [](Process&) {
          volatile int sink = Overflow::recurse(64);
          (void)sink;
        });
        sim.run();
      },
      "");
}

TEST(ShardScheduler, ChannelPushToTornDownShardIsAContractViolation) {
  // Routing a rank's cross-shard event to a detached engine is a
  // partitioning bug; the channel must reject it loudly, not enqueue into
  // freed state.
  Simulation a;
  Simulation b;
  ShardScheduler sched(1.0e-6);
  sched.addShard(&a);
  const std::size_t victim = sched.addShard(&b);
  const Simulation::PushSlot slot{};
  sched.channelPush(victim, 0.5e-6, slot, Simulation::kHost,
                    [] {});  // alive: accepted
  sched.teardownShard(victim);
  EXPECT_THROW(sched.channelPush(victim, 1.5e-6, slot, Simulation::kHost,
                                 [] {}),
               ContractError);
}

TEST(ShardScheduler, ScopedSimShardsOverrideRestoresPrevious) {
  const int before = defaultSimShards();
  {
    ScopedSimShards scoped(4);
    EXPECT_EQ(defaultSimShards(), 4);
    {
      ScopedSimShards nested(2);
      EXPECT_EQ(defaultSimShards(), 2);
    }
    EXPECT_EQ(defaultSimShards(), 4);
  }
  EXPECT_EQ(defaultSimShards(), before);
}

TEST(Simulation, QueuedBeforeCountsOnlyEventsBelowTheBound) {
  Simulation sim;
  // Pushed out of time order so the events below the bound are spread
  // over several heap levels rather than filling a prefix of the array.
  for (const double t : {9.0, 1.0, 7.0, 3.0, 8.0, 2.0, 6.0, 4.0, 5.0, 3.0})
    sim.scheduleAt(t, [] {});
  EXPECT_EQ(sim.queuedBefore(0.5, 100), 0u);
  EXPECT_EQ(sim.queuedBefore(3.0, 100), 2u);  // 1.0, 2.0 (strictly below)
  EXPECT_EQ(sim.queuedBefore(5.5, 100), 6u);
  EXPECT_EQ(sim.queuedBefore(100.0, 100), 10u);
  // The cap bounds the walk, not just the answer.
  EXPECT_EQ(sim.queuedBefore(5.5, 4), 4u);
  EXPECT_EQ(sim.queuedBefore(5.5, 0), 0u);
  sim.runUntil(3.0);  // dispatches 1.0, 2.0, 3.0, 3.0
  EXPECT_EQ(sim.queuedBefore(5.5, 100), 2u);  // 4.0, 5.0
}

TEST(ShardScheduler, FanOutNeedsTwoShardsAtTheThreshold) {
  constexpr std::size_t k = kFanoutMinEvents;
  const auto fan = [](std::vector<std::size_t> queued) {
    return fanOutWindow(queued);
  };
  EXPECT_FALSE(fan({}));
  EXPECT_FALSE(fan({1000}));              // one busy shard: nothing to split
  EXPECT_FALSE(fan({k - 1, k}));          // the lighter shard is too light
  EXPECT_FALSE(fan({1, k, 2, k - 1}));    // only one shard reaches the bar
  EXPECT_FALSE(fan({1, 1, 1, 1, 1, 1}));  // many shards, all narrow
  EXPECT_TRUE(fan({k, k}));
  EXPECT_TRUE(fan({0, k + 8, 3, k}));
  EXPECT_TRUE(fan({k, k, k, k}));
}

// Thousands of windows that alternate between work the gang should run
// (two shards with kFanoutMinEvents+ events each) and work it should not
// (a few events on two shards, or one shard that sometimes blocks its
// thread long enough for the idle gang to park). The merged dispatch order
// must equal one queue's, and every run must finish: fanned windows find
// their workers spinning, parked or just waking, and the caller must never
// wait on one that claimed nothing.
TEST(ShardScheduler, AlternatingNarrowAndWideWindowsKeepOneQueueOrder) {
  constexpr int kRounds = 1000;
  constexpr double kLookahead = 1.0;
  struct Ev {
    double t;
    int shard;
    int sleepUs;
  };
  std::vector<Ev> events;  // index = id, in push (tie-break) order
  const int wide = static_cast<int>(kFanoutMinEvents) + 8;
  for (int r = 0; r < kRounds; ++r) {
    const double base = 10.0 * r;
    // Wide window [base, base + 1): both shards busy, some exact ties.
    for (int j = 0; j < wide; ++j) {
      events.push_back({base + 0.01 * j, 0, 0});
      events.push_back({base + 0.01 * j + (j % 2 == 0 ? 0.0 : 0.005), 1, 0});
    }
    // Narrow two-shard window [base + 3, base + 4).
    for (int j = 0; j < 3; ++j) events.push_back({base + 3.0 + 0.1 * j, 0, 0});
    for (int j = 0; j < 2; ++j) events.push_back({base + 3.05 + 0.1 * j, 1, 0});
    // Narrow one-shard window [base + 6, base + 7); two in four block their
    // thread for 0.3 or 2 ms, around the gang's spin-then-park budget.
    static constexpr int kSleepUs[] = {0, 0, 300, 2000};
    for (int j = 0; j < 5; ++j) {
      events.push_back(
          {base + 6.0 + 0.1 * j, r % 2, j == 2 ? kSleepUs[r % 4] : 0});
    }
  }
  const auto fire = [&events](std::vector<int>& log, int id) {
    log.push_back(id);
    if (const int us = events[static_cast<std::size_t>(id)].sleepUs; us > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(us));
  };

  std::vector<int> reference;
  {
    Simulation one;
    for (int id = 0; id < static_cast<int>(events.size()); ++id)
      one.scheduleAt(events[static_cast<std::size_t>(id)].t,
                     [&reference, id] { reference.push_back(id); });
    one.run();
  }
  ASSERT_EQ(reference.size(), events.size());

  const auto sharded = [&](const char* shardThreads) {
    testing::ScopedEnv env("TIBSIM_SHARD_THREADS", shardThreads);
    Simulation shard0;
    Simulation shard1;
    Simulation* shards[] = {&shard0, &shard1};
    std::vector<int> logs[2];
    for (int id = 0; id < static_cast<int>(events.size()); ++id) {
      const Ev& ev = events[static_cast<std::size_t>(id)];
      std::vector<int>& log = logs[ev.shard];
      shards[ev.shard]->scheduleAt(ev.t,
                                   [&fire, &log, id] { fire(log, id); });
    }
    ShardScheduler sched(kLookahead);
    sched.addShard(&shard0);
    sched.addShard(&shard1);
    std::vector<int> merged;
    sched.run([&] {
      // Each shard ran its part of the window in its own order; merge the
      // two by (t, push order), as the world barrier does.
      const std::size_t from = merged.size();
      for (std::vector<int>& log : logs) {
        merged.insert(merged.end(), log.begin(), log.end());
        log.clear();
      }
      std::sort(merged.begin() + static_cast<std::ptrdiff_t>(from),
                merged.end(), [&events](int a, int b) {
                  return std::tie(events[static_cast<std::size_t>(a)].t, a) <
                         std::tie(events[static_cast<std::size_t>(b)].t, b);
                });
    });
    EXPECT_EQ(merged, reference);
    EXPECT_EQ(sched.windowsRun(), 3u * kRounds);
    EXPECT_EQ(sched.parallelWindowsRun(), 2u * kRounds);
    return std::make_pair(sched.fanoutWindowsRun(), sched.gangParticipants());
  };

  // A forced gang fans out every window with two active shards.
  const auto [forcedFanned, forcedGang] = sharded("2");
  EXPECT_EQ(forcedGang, 2u);
  EXPECT_EQ(forcedFanned, 2u * kRounds);
  // By default only the wide windows go to the gang (if the host has one).
  const auto [fanned, gang] = sharded(nullptr);
  EXPECT_EQ(fanned, gang >= 2 ? static_cast<std::uint64_t>(kRounds) : 0u);
}

}  // namespace
}  // namespace tibsim::sim
