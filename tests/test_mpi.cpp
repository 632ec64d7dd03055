// Tests for simMPI: point-to-point semantics, payload integrity, tag
// matching, rendezvous, collectives, deadlock detection, accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "scoped_env.hpp"
#include "tibsim/apps/taskfarm.hpp"
#include "tibsim/arch/registry.hpp"
#include "tibsim/common/assert.hpp"
#include "tibsim/common/units.hpp"
#include "tibsim/mpi/payload_pool.hpp"
#include "tibsim/mpi/simmpi.hpp"

namespace tibsim::mpi {
namespace {

using namespace units;

WorldConfig testConfig(int ranksPerNode = 1,
                       net::Protocol proto = net::Protocol::TcpIp) {
  WorldConfig cfg;
  cfg.platform = arch::PlatformRegistry::tegra2();
  cfg.frequencyHz = ghz(1.0);
  cfg.protocol = proto;
  cfg.ranksPerNode = ranksPerNode;
  return cfg;
}

// One "fiber" instance per suite: it keeps the suites' established test
// names (Backends/<Suite>.<Test>/fiber) for filters and logs.
enum class Engine { Fiber };

class SimMpiTest : public ::testing::TestWithParam<Engine> {};

#define TIBSIM_INSTANTIATE_FIBER(fixture)                               \
  INSTANTIATE_TEST_SUITE_P(Backends, fixture,                           \
                           ::testing::Values(Engine::Fiber),            \
                           [](const auto&) { return std::string("fiber"); })

class SimMpiNonblockingTest : public SimMpiTest {};
class SimMpiCollectivesTest : public SimMpiTest {};
class SimMpiCollectiveVerifyTest : public SimMpiTest {};
TIBSIM_INSTANTIATE_FIBER(SimMpiTest);
TIBSIM_INSTANTIATE_FIBER(SimMpiNonblockingTest);
TIBSIM_INSTANTIATE_FIBER(SimMpiCollectivesTest);
TIBSIM_INSTANTIATE_FIBER(SimMpiCollectiveVerifyTest);

TEST_P(SimMpiTest, RankAndSizeVisible) {
  MpiWorld world(testConfig(), 4);
  std::vector<int> seen(4, -1);
  world.run([&](MpiContext& ctx) {
    seen[static_cast<std::size_t>(ctx.rank())] = ctx.size();
  });
  for (int s : seen) EXPECT_EQ(s, 4);
}

TEST_P(SimMpiTest, NodePlacementFollowsRanksPerNode) {
  MpiWorld world(testConfig(2), 6);
  EXPECT_EQ(world.nodes(), 3);
  std::vector<int> nodeOf(6, -1);
  world.run([&](MpiContext& ctx) {
    nodeOf[static_cast<std::size_t>(ctx.rank())] = ctx.node();
  });
  EXPECT_EQ(nodeOf, (std::vector<int>{0, 0, 1, 1, 2, 2}));
}

TEST_P(SimMpiTest, PayloadRoundTrips) {
  MpiWorld world(testConfig(), 2);
  std::vector<double> received;
  world.run([&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      const std::vector<double> data = {1.5, -2.25, 3.75};
      ctx.sendDoubles(1, 42, data);
    } else {
      received = ctx.recvDoubles(0, 42);
    }
  });
  EXPECT_EQ(received, (std::vector<double>{1.5, -2.25, 3.75}));
}

TEST_P(SimMpiTest, SizeOnlyMessagesReportBytes) {
  MpiWorld world(testConfig(), 2);
  std::size_t got = 0;
  world.run([&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 1, 123456);
    } else {
      const auto payload = ctx.recv(0, 1, &got);
      EXPECT_TRUE(payload.empty());
    }
  });
  EXPECT_EQ(got, 123456u);
}

TEST_P(SimMpiTest, TagMatchingSelectsCorrectMessage) {
  MpiWorld world(testConfig(), 2);
  std::vector<double> first, second;
  world.run([&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.sendDoubles(1, /*tag=*/7, std::vector<double>{7.0});
      ctx.sendDoubles(1, /*tag=*/8, std::vector<double>{8.0});
    } else {
      // Receive in the opposite order from the sends.
      second = ctx.recvDoubles(0, 8);
      first = ctx.recvDoubles(0, 7);
    }
  });
  EXPECT_EQ(first, std::vector<double>{7.0});
  EXPECT_EQ(second, std::vector<double>{8.0});
}

TEST_P(SimMpiTest, FifoPerSourceAndTag) {
  MpiWorld world(testConfig(), 2);
  std::vector<double> order;
  world.run([&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 5; ++i)
        ctx.sendDoubles(1, 3, std::vector<double>{static_cast<double>(i)});
    } else {
      for (int i = 0; i < 5; ++i)
        order.push_back(ctx.recvDoubles(0, 3)[0]);
    }
  });
  EXPECT_EQ(order, (std::vector<double>{0, 1, 2, 3, 4}));
}

TEST_P(SimMpiTest, MessagesTakeSimulatedTime) {
  MpiWorld world(testConfig(), 2);
  double recvDone = 0.0;
  const auto stats = world.run([&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 1, 64);
    } else {
      ctx.recv(0, 1);
      recvDone = ctx.now();
    }
  });
  // One small TCP message on Tegra2 @ 1 GHz: ~100 us one-way.
  EXPECT_GT(recvDone, 50e-6);
  EXPECT_LT(recvDone, 200e-6);
  EXPECT_EQ(stats.messageCount, 1u);
}

TEST_P(SimMpiTest, RendezvousLargeMessageCompletes) {
  MpiWorld world(testConfig(1, net::Protocol::OpenMx), 2);
  const std::size_t big = 256 * 1024;  // > 32 KiB threshold
  std::size_t got = 0;
  double senderDone = 0.0, receiverDone = 0.0;
  world.run([&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 5, big);
      senderDone = ctx.now();
    } else {
      ctx.computeSeconds(0.01);  // receiver arrives late: RTS must wait
      ctx.recv(0, 5, &got);
      receiverDone = ctx.now();
    }
  });
  EXPECT_EQ(got, big);
  // Rendezvous: the sender cannot complete before the receiver showed up.
  EXPECT_GT(senderDone, 0.01);
  EXPECT_GT(receiverDone, senderDone * 0.5);
}

TEST_P(SimMpiTest, RendezvousBothDirectionsViaSendrecv) {
  MpiWorld world(testConfig(1, net::Protocol::OpenMx), 2);
  const std::size_t big = 128 * 1024;
  world.run([&](MpiContext& ctx) {
    const int peer = 1 - ctx.rank();
    ctx.sendrecv(peer, 9, big);
  });
  SUCCEED();  // completing without deadlock is the assertion
}

TEST_P(SimMpiTest, SameNodeMessagesAreFast) {
  MpiWorld world(testConfig(2), 2);  // both ranks on node 0
  double elapsed = 0.0;
  world.run([&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 1, 1024);
    } else {
      ctx.recv(0, 1);
      elapsed = ctx.now();
    }
  });
  EXPECT_LT(elapsed, 20e-6);  // shared memory, no NIC
}

TEST_P(SimMpiTest, DeadlockIsDetected) {
  MpiWorld world(testConfig(), 2);
  EXPECT_THROW(world.run([](MpiContext& ctx) {
    // Both ranks receive first: classic deadlock.
    ctx.recv(1 - ctx.rank(), 1);
  }),
               ContractError);
}

TEST_P(SimMpiTest, DeadlockWithoutWatchdogPointsAtTheFlag) {
  MpiWorld world(testConfig(), 2);
  try {
    world.run([](MpiContext& ctx) { ctx.recv(1 - ctx.rank(), 1); });
    FAIL() << "deadlock not detected";
  } catch (const ContractError& error) {
    EXPECT_NE(std::string(error.what()).find("--stall-report"),
              std::string::npos)
        << error.what();
  }
}

TEST_P(SimMpiTest, StallReportListsEveryBlockedRank) {
  // The report is derived from simulated state only, so the exact lines
  // can be pinned: identical on any shard count.
  obs::ScopedStallReport scoped(true);
  MpiWorld world(testConfig(), 4);
  try {
    world.run([](MpiContext& ctx) {
      // Every rank receives from its left neighbour first: a 4-cycle.
      ctx.recv((ctx.rank() + 1) % ctx.size(), 7);
    });
    FAIL() << "deadlock not detected";
  } catch (const ContractError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("stall report: 4 rank(s) blocked at t=0s"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 0 node 0: recv(peer=1, tag=7)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 3 node 3: recv(peer=0, tag=7)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("blocked 0s since t=0s"), std::string::npos) << what;
  }
}

TEST_P(SimMpiTest, StallReportCoversRendezvousSenders) {
  // A rendezvous send with no matching receive blocks on the CTS; the
  // watchdog must attribute the stall to the send side, not the mailbox.
  obs::ScopedStallReport scoped(true);
  MpiWorld world(testConfig(1, net::Protocol::OpenMx), 2);
  try {
    world.run([](MpiContext& ctx) {
      if (ctx.rank() == 0) ctx.send(1, 5, 64 * 1024);
    });
    FAIL() << "deadlock not detected";
  } catch (const ContractError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("stall report: 1 rank(s) blocked"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 0 node 0: rendezvous-send(peer=1, tag=5)"),
              std::string::npos)
        << what;
  }
}

TEST_P(SimMpiTest, StallReportIsByteIdenticalAcrossShards) {
  obs::ScopedStallReport scoped(true);
  const auto report = [](int shards) {
    WorldConfig cfg = testConfig();
    cfg.topology.nodesPerLeafSwitch = 2;
    cfg.simShards = shards;
    MpiWorld world(cfg, 6);
    try {
      world.run([](MpiContext& ctx) {
        if (ctx.rank() < 3) {
          ctx.recv((ctx.rank() + 1) % 3, 9);  // 3-cycle among ranks 0..2
        } else {
          ctx.computeSeconds(1e-5 * ctx.rank());  // these ranks finish
        }
      });
    } catch (const ContractError& error) {
      // Strip the engine-specific TIB_REQUIRE prefix (expression and
      // file:line differ between the single-queue and sharded engines);
      // the report body itself must be byte-identical.
      const std::string what = error.what();
      const std::size_t at = what.find("stall report:");
      return at == std::string::npos ? what : what.substr(at);
    }
    return std::string();
  };
  const std::string base = report(1);
  ASSERT_NE(base.find("stall report: 3 rank(s) blocked"), std::string::npos)
      << base;
  EXPECT_EQ(report(2), base);
  EXPECT_EQ(report(3), base);
}

// ---- Runtime collective-matching verifier ---------------------------------

TEST_P(SimMpiCollectiveVerifyTest, CleanRunPassesAndCountsChecks) {
  WorldConfig cfg = testConfig();
  cfg.verifyCollectives = true;
  MpiWorld world(cfg, 4);
  const WorldStats stats = world.run([](MpiContext& ctx) {
    ctx.allreduceSum(1.0);
    ctx.barrier();
    ctx.bcastBytes(4096, 0);
  });
  EXPECT_GT(stats.collectiveChecks, 0u);
}

TEST_P(SimMpiCollectiveVerifyTest, OffByDefaultPerformsNoChecks) {
  MpiWorld world(testConfig(), 4);
  const WorldStats stats = world.run([](MpiContext& ctx) {
    ctx.allreduceSum(1.0);
    ctx.barrier();
  });
  EXPECT_EQ(stats.collectiveChecks, 0u);
}

TEST_P(SimMpiCollectiveVerifyTest, DivergentReduceOpIsReported) {
  WorldConfig cfg = testConfig();
  cfg.verifyCollectives = true;
  MpiWorld world(cfg, 4);
  try {
    world.run([](MpiContext& ctx) {
      Communicator comm = ctx.commWorld();
      // One rank votes with a sum while the others run a max — same tag
      // space, same message schedule, divergent stamps.
      if (ctx.rank() == 2) {
        comm.allreduce(1.0, ReduceOp::Sum);
      } else {
        comm.allreduce(1.0, ReduceOp::Max);
      }
    });
    FAIL() << "collective mismatch not detected";
  } catch (const ContractError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("collective mismatch on comm 0"), std::string::npos)
        << what;
    EXPECT_NE(what.find("op=sum"), std::string::npos) << what;
    EXPECT_NE(what.find("op=max"), std::string::npos) << what;
    EXPECT_NE(what.find("every rank of a communicator must run the same "
                        "collective sequence"),
              std::string::npos)
        << what;
  }
}

TEST_P(SimMpiCollectiveVerifyTest, CollectiveVsPointToPointIsReported) {
  WorldConfig cfg = testConfig();
  cfg.verifyCollectives = true;
  MpiWorld world(cfg, 2);
  try {
    world.run([](MpiContext& ctx) {
      // Rank 0's dissemination-barrier signal is stamped; rank 1 consumes
      // it with a plain receive on the reserved plumbing tag instead of
      // entering the barrier: a one-sided engagement.
      // Deliberate divergence: exactly what the lint rule exists to stop.
      if (ctx.rank() == 0) {  // tibsim-lint: allow(collective-match)
        ctx.barrier();
      } else {
        ctx.recv(0, 1 << 24);  // kBarrierTag round 0
      }
    });
    FAIL() << "collective mismatch not detected";
  } catch (const ContractError& error) {
    EXPECT_NE(std::string(error.what()).find("point-to-point traffic"),
              std::string::npos)
        << error.what();
  }
}

TEST_P(SimMpiCollectiveVerifyTest, MismatchReportIsByteIdenticalAcrossShards) {
  const auto report = [](int shards) {
    WorldConfig cfg = testConfig();
    cfg.verifyCollectives = true;
    cfg.topology.nodesPerLeafSwitch = 2;
    cfg.simShards = shards;
    MpiWorld world(cfg, 6);
    try {
      world.run([](MpiContext& ctx) {
        Communicator comm = ctx.commWorld();
        if (ctx.rank() == 3) {
          comm.allreduce(2.0, ReduceOp::Sum);
        } else {
          comm.allreduce(2.0, ReduceOp::Max);
        }
      });
    } catch (const ContractError& error) {
      // Strip the engine-specific TIB_REQUIRE prefix, as in the stall-
      // report test; the report body must be byte-identical.
      const std::string what = error.what();
      const std::size_t at = what.find("collective mismatch");
      return at == std::string::npos ? what : what.substr(at);
    }
    return std::string();
  };
  const std::string base = report(1);
  ASSERT_NE(base.find("collective mismatch on comm 0"), std::string::npos)
      << base;
  EXPECT_EQ(report(2), base);
  EXPECT_EQ(report(3), base);
}

TEST_P(SimMpiTest, RankExceptionsPropagate) {
  MpiWorld world(testConfig(), 2);
  EXPECT_THROW(world.run([](MpiContext& ctx) {
    if (ctx.rank() == 1) throw std::runtime_error("rank failure");
    ctx.computeSeconds(0.001);
  }),
               std::runtime_error);
}

TEST_P(SimMpiTest, ComputeAdvancesClockAndAccounts) {
  MpiWorld world(testConfig(), 1);
  const auto stats = world.run([&](MpiContext& ctx) {
    ctx.compute(perfmodel::WorkProfile{1e9, 0.0,
                                       perfmodel::AccessPattern::Resident,
                                       1.0, 1.0, 0.0});
  });
  EXPECT_GT(stats.wallClockSeconds, 1.0);  // 1 GFLOP at ~0.55 GFLOP/s
  EXPECT_DOUBLE_EQ(stats.totalFlops, 1e9);
  EXPECT_GT(stats.nodeBusySeconds[0], 1.0);
}

// ---- Collectives -----------------------------------------------------------

// Where a collective's ranks run. `Queue`: the default world, one event
// queue on the test's thread. `Gang`: one node per leaf switch and one
// shard per leaf, every multi-shard window fanned out to a two-thread
// worker gang, so the ranks' fibers are resumed by worker threads. The
// instances keep the suite's established names, "<n>_fiber" and
// "<n>_thread".
enum class Layout { Queue, Gang };

class CollectiveSizes
    : public ::testing::TestWithParam<std::tuple<int, Layout>> {
 protected:
  CollectiveSizes() {
    if (gang()) forcedGang_.emplace("TIBSIM_SHARD_THREADS", "2");
  }

  int ranks() const { return std::get<0>(GetParam()); }
  bool gang() const { return std::get<1>(GetParam()) == Layout::Gang; }

  WorldConfig config() const {
    WorldConfig cfg = testConfig();
    if (gang()) {
      cfg.topology.nodesPerLeafSwitch = 1;
      cfg.simShards = ranks();
    }
    return cfg;
  }

  WorldStats run(MpiWorld& world, const MpiWorld::RankBody& body) const {
    const WorldStats stats = world.run(body);
    if (gang()) {
      EXPECT_EQ(stats.engine.shardCount, static_cast<std::size_t>(ranks()));
      EXPECT_GT(stats.engine.shardFanoutWindows, 0u);
    }
    return stats;
  }

 private:
  std::optional<testing::ScopedEnv> forcedGang_;
};

TEST_P(CollectiveSizes, BarrierSynchronises) {
  const int n = ranks();
  MpiWorld world(config(), n);
  std::vector<double> after(static_cast<std::size_t>(n), 0.0);
  run(world, [&](MpiContext& ctx) {
    // Rank r works r milliseconds, then hits the barrier.
    ctx.computeSeconds(1e-3 * ctx.rank());
    ctx.barrier();
    after[static_cast<std::size_t>(ctx.rank())] = ctx.now();
  });
  // Nobody leaves the barrier before the slowest rank reached it.
  const double slowest = 1e-3 * (n - 1);
  for (double t : after) EXPECT_GE(t, slowest);
}

TEST_P(CollectiveSizes, BcastDeliversRootData) {
  const int n = ranks();
  const int root = n > 2 ? 2 : 0;
  MpiWorld world(config(), n);
  std::vector<std::vector<double>> results(static_cast<std::size_t>(n));
  run(world, [&](MpiContext& ctx) {
    std::vector<double> data;
    if (ctx.rank() == root) data = {3.0, 1.0, 4.0, 1.0, 5.0};
    results[static_cast<std::size_t>(ctx.rank())] =
        ctx.bcast(std::move(data), root);
  });
  for (const auto& r : results)
    EXPECT_EQ(r, (std::vector<double>{3.0, 1.0, 4.0, 1.0, 5.0}));
}

TEST_P(CollectiveSizes, ReduceSumsContributions) {
  const int n = ranks();
  MpiWorld world(config(), n);
  std::vector<double> rootResult;
  run(world, [&](MpiContext& ctx) {
    const std::vector<double> mine = {static_cast<double>(ctx.rank()),
                                      1.0};
    const auto out = ctx.reduceSum(mine, 0);
    if (ctx.rank() == 0) rootResult = out;
  });
  ASSERT_EQ(rootResult.size(), 2u);
  EXPECT_DOUBLE_EQ(rootResult[0], n * (n - 1) / 2.0);
  EXPECT_DOUBLE_EQ(rootResult[1], n);
}

TEST_P(CollectiveSizes, AllreduceGivesEveryoneTheSum) {
  const int n = ranks();
  MpiWorld world(config(), n);
  std::vector<double> sums(static_cast<std::size_t>(n), 0.0);
  run(world, [&](MpiContext& ctx) {
    sums[static_cast<std::size_t>(ctx.rank())] =
        ctx.allreduceSum(static_cast<double>(ctx.rank() + 1));
  });
  for (double s : sums) EXPECT_DOUBLE_EQ(s, n * (n + 1) / 2.0);
}

TEST_P(CollectiveSizes, AllreduceMaxFindsGlobalMax) {
  const int n = ranks();
  MpiWorld world(config(), n);
  std::vector<double> maxes(static_cast<std::size_t>(n), 0.0);
  run(world, [&](MpiContext& ctx) {
    // Values peak in the middle to exercise non-root extremes.
    const double mine = -std::abs(ctx.rank() - n / 2.0);
    maxes[static_cast<std::size_t>(ctx.rank())] =
        ctx.commWorld().allreduce(mine, ReduceOp::Max);
  });
  const double expected = n % 2 == 0 ? 0.0 : -0.5;
  for (double m : maxes) EXPECT_DOUBLE_EQ(m, expected);
}

TEST_P(CollectiveSizes, GatherCollectsInRankOrder) {
  const int n = ranks();
  MpiWorld world(config(), n);
  std::vector<double> gathered;
  run(world, [&](MpiContext& ctx) {
    const auto all = ctx.gather(static_cast<double>(ctx.rank() * 10), 0);
    if (ctx.rank() == 0) gathered = all;
  });
  ASSERT_EQ(gathered.size(), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    EXPECT_DOUBLE_EQ(gathered[static_cast<std::size_t>(r)], r * 10.0);
}

TEST_P(CollectiveSizes, AllgatherEveryoneSeesAll) {
  const int n = ranks();
  MpiWorld world(config(), n);
  std::vector<std::vector<double>> results(static_cast<std::size_t>(n));
  run(world, [&](MpiContext& ctx) {
    results[static_cast<std::size_t>(ctx.rank())] =
        ctx.allgather(static_cast<double>(ctx.rank()));
  });
  for (const auto& r : results) {
    ASSERT_EQ(r.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      EXPECT_DOUBLE_EQ(r[static_cast<std::size_t>(i)], i);
  }
}

TEST_P(CollectiveSizes, AlltoallCompletes) {
  const int n = ranks();
  MpiWorld world(config(), n);
  const auto stats = run(world, [&](MpiContext& ctx) {
    ctx.alltoallBytes(4096);
  });
  // Every ordered pair exchanged one message.
  EXPECT_EQ(stats.messageCount, static_cast<std::uint64_t>(n) * (n - 1));
}

INSTANTIATE_TEST_SUITE_P(
    RankCounts, CollectiveSizes,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 8, 13, 16),
                       ::testing::Values(Layout::Queue, Layout::Gang)),
    [](const auto& paramInfo) {
      return std::to_string(std::get<0>(paramInfo.param)) +
             (std::get<1>(paramInfo.param) == Layout::Queue ? "_fiber"
                                                            : "_thread");
    });

TEST_P(SimMpiNonblockingTest, IrecvOverlapsComputeWithArrival) {
  // Rank 1 posts irecv, computes 10 ms while the message flies, then
  // waits: total time ~= max(compute, message), not the sum.
  MpiWorld world(testConfig(), 2);
  double finish = 0.0;
  world.run([&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 3, 64);
    } else {
      const auto req = ctx.irecv(0, 3);
      ctx.computeSeconds(10e-3);
      ctx.wait(req);
      finish = ctx.now();
    }
  });
  EXPECT_LT(finish, 10e-3 + 120e-6);  // overlapped, only recv CPU added
  EXPECT_GT(finish, 10e-3);
}

TEST_P(SimMpiNonblockingTest, IsendDoesNotBlockEvenAboveRendezvousThreshold) {
  MpiWorld world(testConfig(1, net::Protocol::OpenMx), 2);
  double sendDone = 0.0;
  world.run([&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      const auto req = ctx.isend(1, 4, 512 * 1024);  // would rendezvous
      sendDone = ctx.now();
      ctx.wait(req);
    } else {
      ctx.computeSeconds(0.5);  // receiver very late
      ctx.recv(0, 4);
    }
  });
  // The blocking rendezvous path would have waited ~0.5 s for the CTS.
  EXPECT_LT(sendDone, 0.1);
}

TEST_P(SimMpiNonblockingTest, PayloadDeliveredThroughWait) {
  MpiWorld world(testConfig(), 2);
  std::vector<double> got;
  world.run([&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      const std::vector<double> data = {2.5, 7.5};
      // Deliberate raw-byte round trip of the payload path; production code
      // should use sendDoubles/recvDoubles instead.
      ctx.isend(1, 9, data.size() * sizeof(double),  // tibsim-lint: allow(mpi-contract)
                std::as_bytes(std::span<const double>(data)));
    } else {
      const auto req = ctx.irecv(0, 9);
      const auto raw = ctx.wait(req);
      got.resize(raw.size() / sizeof(double));
      std::memcpy(got.data(), raw.data(), raw.size());
    }
  });
  EXPECT_EQ(got, (std::vector<double>{2.5, 7.5}));
}

TEST_P(SimMpiNonblockingTest, WaitallCompletesManyRequests) {
  MpiWorld world(testConfig(), 4);
  int completed = 0;
  world.run([&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      std::vector<MpiContext::Request> reqs;
      for (int r = 1; r < 4; ++r) reqs.push_back(ctx.irecv(r, r));
      ctx.waitall(reqs);
      completed = static_cast<int>(reqs.size());
    } else {
      ctx.send(0, ctx.rank(), 128);
    }
  });
  EXPECT_EQ(completed, 3);
}

TEST_P(SimMpiNonblockingTest, DoubleWaitThrows) {
  MpiWorld world(testConfig(), 2);
  EXPECT_THROW(world.run([&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 1, 8);
    } else {
      const auto req = ctx.irecv(0, 1);
      ctx.wait(req);
      ctx.wait(req);  // already consumed
    }
  }),
               ContractError);
}

TEST_P(SimMpiCollectivesTest, NeighborExchangeHasNoChainSerialisation) {
  // With the red-black schedule the halo exchange completes in O(1)
  // message times regardless of rank count.
  auto haloTime = [](int ranks) {
    MpiWorld world(testConfig(), ranks);
    const auto stats = world.run([](MpiContext& ctx) {
      ctx.neighborExchange(65536, 5);
    });
    return stats.wallClockSeconds;
  };
  const double small = haloTime(8);
  const double large = haloTime(64);
  EXPECT_LT(large, 2.5 * small);
}

TEST_P(SimMpiCollectivesTest, NeighborExchangeWorksForOddRankCounts) {
  for (int ranks : {2, 3, 5, 7}) {
    MpiWorld world(testConfig(), ranks);
    const auto stats = world.run([](MpiContext& ctx) {
      ctx.neighborExchange(1024, 6);
    });
    // Each interior rank exchanges with 2 neighbours; ends with 1.
    EXPECT_EQ(stats.messageCount,
              static_cast<std::uint64_t>(2 * (ranks - 1)))
        << ranks;
  }
}

TEST_P(SimMpiCollectivesTest, PipelinedBcastFasterThanBinomialForBigPayloads) {
  const std::size_t bytes = 8 << 20;
  auto run = [&](bool pipelined) {
    MpiWorld world(testConfig(), 16);
    const auto stats = world.run([&](MpiContext& ctx) {
      if (pipelined) {
        ctx.pipelinedBcastBytes(bytes, 0);
      } else {
        ctx.bcastBytes(bytes, 0);
      }
    });
    return stats.wallClockSeconds;
  };
  EXPECT_LT(run(true), run(false));
}

TEST_P(SimMpiCollectivesTest, PipelinedBcastCausality) {
  // No rank may finish the broadcast before the root produced the data.
  MpiWorld world(testConfig(), 8);
  std::vector<double> finish(8, 0.0);
  world.run([&](MpiContext& ctx) {
    if (ctx.rank() == 3) ctx.computeSeconds(0.05);  // root is late
    ctx.pipelinedBcastBytes(1 << 20, 3);
    finish[static_cast<std::size_t>(ctx.rank())] = ctx.now();
  });
  for (double t : finish) EXPECT_GT(t, 0.05);
}

TEST(PayloadPool, AcquireCopiesAndCountsAllocations) {
  PayloadPool pool;
  std::vector<std::byte> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i);
  const std::vector<std::byte> buf = pool.acquire(data);
  ASSERT_EQ(buf.size(), data.size());
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), data.size()), 0);
  EXPECT_EQ(pool.stats().allocations, 1u);
  EXPECT_EQ(pool.stats().reuses, 0u);
  EXPECT_EQ(pool.freeBuffers(), 0u);
}

TEST(PayloadPool, ReleasedBuffersAreReusedLifoWithoutAllocating) {
  PayloadPool pool;
  const std::vector<std::byte> data(1024, std::byte{0x5a});
  std::vector<std::byte> buf = pool.acquire(data);
  pool.release(std::move(buf));
  EXPECT_EQ(pool.stats().returns, 1u);
  EXPECT_EQ(pool.freeBuffers(), 1u);
  const std::vector<std::byte> again = pool.acquire(data);
  EXPECT_EQ(pool.stats().allocations, 1u);  // unchanged: served from pool
  EXPECT_EQ(pool.stats().reuses, 1u);
  EXPECT_EQ(pool.freeBuffers(), 0u);
  EXPECT_EQ(again.size(), data.size());
  EXPECT_EQ(std::memcmp(again.data(), data.data(), data.size()), 0);
}

TEST(PayloadPool, EveryAcquireIsEitherReuseOrAllocation) {
  PayloadPool pool;
  const std::vector<std::byte> data(512, std::byte{7});
  for (int round = 0; round < 5; ++round) {
    std::vector<std::byte> a = pool.acquire(data);
    std::vector<std::byte> b = pool.acquire(data);
    pool.release(std::move(a));
    pool.release(std::move(b));
  }
  const PayloadPool::Stats& s = pool.stats();
  EXPECT_EQ(s.reuses + s.allocations, 10u);
  EXPECT_EQ(s.allocations, 2u);  // the first round's two buffers
  EXPECT_EQ(s.returns, 10u);
  EXPECT_EQ(pool.freeBuffers(), 2u);
}

TEST(PayloadPool, LiveHighWaterTracksPeakSimultaneousBuffers) {
  PayloadPool pool;
  const std::vector<std::byte> data(256, std::byte{3});
  std::vector<std::byte> a = pool.acquire(data);
  std::vector<std::byte> b = pool.acquire(data);
  std::vector<std::byte> c = pool.acquire(data);
  EXPECT_EQ(pool.outstandingBuffers(), 3);
  EXPECT_EQ(pool.stats().liveHighWater, 3u);
  pool.release(std::move(a));
  pool.release(std::move(b));
  pool.release(std::move(c));
  EXPECT_EQ(pool.outstandingBuffers(), 0);
  // The mark records the peak, not the current level.
  EXPECT_EQ(pool.stats().liveHighWater, 3u);
  // Serial churn afterwards never raises it.
  for (int i = 0; i < 4; ++i) pool.release(pool.acquire(data));
  EXPECT_EQ(pool.stats().liveHighWater, 3u);
}

TEST(PayloadPool, TrimToHighWaterFreesColdSurplus) {
  PayloadPool pool;
  const std::vector<std::byte> data(256, std::byte{4});
  // Burst: five buffers live at once, then all parked.
  std::vector<std::vector<std::byte>> live;
  for (int i = 0; i < 5; ++i) live.push_back(pool.acquire(data));
  for (auto& buf : live) pool.release(std::move(buf));
  live.clear();
  EXPECT_EQ(pool.freeBuffers(), 5u);
  // Peak demand was 5 simultaneous buffers, so nothing is surplus yet.
  EXPECT_EQ(pool.trimToHighWater(), 0u);
  EXPECT_EQ(pool.freeBuffers(), 5u);
  // A new accounting window with only serial traffic: the observed peak
  // drops to 1, and the next trim frees the four cold buffers.
  pool.resetStats();
  pool.release(pool.acquire(data));
  EXPECT_EQ(pool.stats().liveHighWater, 1u);
  EXPECT_EQ(pool.trimToHighWater(), 4u);
  EXPECT_EQ(pool.freeBuffers(), 1u);
  EXPECT_EQ(pool.stats().trimmedBuffers, 4u);
  // Idempotent at the mark.
  EXPECT_EQ(pool.trimToHighWater(), 0u);
}

TEST(PayloadPool, TrimAccountsForBuffersStillOutstanding) {
  PayloadPool pool;
  const std::vector<std::byte> data(128, std::byte{5});
  std::vector<std::byte> held = pool.acquire(data);
  std::vector<std::byte> other = pool.acquire(data);
  pool.release(std::move(other));
  // Peak 2, one checked out, one parked: parked + outstanding == peak, so
  // the parked buffer must survive the trim.
  EXPECT_EQ(pool.trimToHighWater(), 0u);
  EXPECT_EQ(pool.freeBuffers(), 1u);
  pool.release(std::move(held));
}

TEST(PayloadPool, SizeClassesRoundCapacityUpAndKeepWarmBuffersPerClass) {
  PayloadPool pool;
  // 100 bytes lands in the 128-byte class, 4000 bytes in the 4096 class.
  EXPECT_EQ(PayloadPool::classBytes(PayloadPool::classIndex(100)), 128u);
  EXPECT_EQ(PayloadPool::classBytes(PayloadPool::classIndex(128)), 128u);
  EXPECT_EQ(PayloadPool::classBytes(PayloadPool::classIndex(129)), 256u);
  EXPECT_EQ(PayloadPool::classBytes(PayloadPool::classIndex(4000)), 4096u);
  const std::vector<std::byte> small(100, std::byte{1});
  const std::vector<std::byte> large(4000, std::byte{2});
  std::vector<std::byte> s = pool.acquire(small);
  std::vector<std::byte> l = pool.acquire(large);
  EXPECT_EQ(s.capacity(), 128u);
  EXPECT_EQ(l.capacity(), 4096u);
  pool.release(std::move(s));
  pool.release(std::move(l));
  // Each request is served from its own class: the small request must not
  // consume (and under-size) the large parked buffer or vice versa.
  std::vector<std::byte> s2 = pool.acquire(small);
  EXPECT_EQ(s2.capacity(), 128u);
  std::vector<std::byte> l2 = pool.acquire(large);
  EXPECT_EQ(l2.capacity(), 4096u);
  const auto& cs = pool.classStats();
  EXPECT_EQ(cs[PayloadPool::classIndex(100)].reuses, 1u);
  EXPECT_EQ(cs[PayloadPool::classIndex(4000)].reuses, 1u);
  pool.release(std::move(s2));
  pool.release(std::move(l2));
}

TEST(PayloadPool, ClassPoolReusesWhereTheLegacyLifoWouldAllocate) {
  // Release order large-then-small leaves the small buffer most recently
  // parked, so a single LIFO would pop it for a large request, find it too
  // small, and reallocate. The class pool picks the exact class instead.
  PayloadPool pool;
  const std::vector<std::byte> small(100, std::byte{1});
  const std::vector<std::byte> large(4000, std::byte{2});
  std::vector<std::byte> l = pool.acquire(large);
  std::vector<std::byte> s = pool.acquire(small);
  pool.release(std::move(l));
  pool.release(std::move(s));  // small buffer parked last
  std::vector<std::byte> l2 = pool.acquire(large);
  EXPECT_EQ(l2.capacity(), 4096u);          // served from the 4096 class
  EXPECT_EQ(pool.stats().allocations, 2u);  // only the first two acquires
  EXPECT_EQ(pool.stats().reuses, 1u);
  EXPECT_EQ(pool.classStats()[PayloadPool::classIndex(4000)].reuses, 1u);
  EXPECT_EQ(pool.classStats()[PayloadPool::classIndex(100)].parked, 1u);
  EXPECT_EQ(pool.freeBuffers(), 1u);        // the small buffer stays parked
  pool.release(std::move(l2));
}

TEST(PayloadPool, WorldRunReportsTrimAndHighWater) {
  // A world whose ranks exchange pool-sized payloads must report a nonzero
  // live high-water mark, and the teardown trim keeps the parked-buffer
  // count at or below it.
  MpiWorld world(WorldConfig::tibidaboNode(), 2);
  const WorldStats stats = world.run([](MpiContext& ctx) {
    std::vector<double> data(512, 1.5);  // 4 KiB: pooled, not inline
    if (ctx.rank() == 0)
      for (int i = 0; i < 8; ++i) ctx.sendDoubles(1, 7, data);
    else
      for (int i = 0; i < 8; ++i) (void)ctx.recvDoubles(0, 7);
  });
  EXPECT_GT(stats.payloadPooledMessages, 0u);
  EXPECT_GE(stats.payloadPoolLiveHighWater, 1u);
  // All payloads are the same size here, so every pool hit is a reuse and
  // the parked-buffer count is returns - reuses - trimmed; after the
  // teardown trim it must not exceed the observed peak demand.
  EXPECT_LE(stats.payloadPoolReturns - stats.payloadPoolReuses -
                stats.payloadPoolTrimmedBuffers,
            stats.payloadPoolLiveHighWater);
}

TEST(MessagePayloadStorage, InlineUpToCapacityPooledAbove) {
  PayloadPool pool;
  const std::vector<std::byte> small(MessagePayload::kInlineCapacity,
                                     std::byte{1});
  const std::vector<std::byte> big(MessagePayload::kInlineCapacity + 1,
                                   std::byte{2});
  MessagePayload inlined(small, pool);
  MessagePayload pooled(big, pool);
  EXPECT_FALSE(inlined.pooled());
  EXPECT_TRUE(pooled.pooled());
  EXPECT_EQ(pool.stats().inlineMessages, 1u);
  EXPECT_EQ(pool.stats().pooledMessages, 1u);
  EXPECT_EQ(pool.stats().allocations, 1u);

  // Moves hand over the storage and leave the source empty.
  MessagePayload moved(std::move(pooled));
  EXPECT_TRUE(moved.pooled());
  EXPECT_EQ(moved.size(), big.size());
  EXPECT_EQ(pooled.size(), 0u);  // NOLINT(bugprone-use-after-move)

  // intoVector hands the bytes to the caller and recycles the buffer.
  const std::vector<std::byte> out = moved.intoVector(pool);
  EXPECT_EQ(out, big);
  EXPECT_EQ(pool.stats().returns, 1u);
  EXPECT_EQ(pool.freeBuffers(), 1u);

  const std::vector<std::byte> outInline = inlined.intoVector(pool);
  EXPECT_EQ(outInline, small);
  EXPECT_EQ(pool.stats().returns, 1u);  // inline payloads touch no buffer
}

TEST_P(SimMpiTest, PayloadRoundTripsAcrossInlineBoundary) {
  // Byte-exact round trips on both storage paths, straddling the 64-byte
  // inline capacity (inline below, pooled above).
  for (const std::size_t bytes :
       {std::size_t{1}, MessagePayload::kInlineCapacity - 1,
        MessagePayload::kInlineCapacity, MessagePayload::kInlineCapacity + 1,
        std::size_t{4096}}) {
    MpiWorld world(testConfig(), 2);
    std::vector<std::byte> sent(bytes);
    for (std::size_t i = 0; i < bytes; ++i)
      sent[i] = static_cast<std::byte>(i * 37 + 11);
    std::vector<std::byte> got;
    const WorldStats stats = world.run([&](MpiContext& ctx) {
      if (ctx.rank() == 0) {
        ctx.send(1, 5, sent.size(), sent);
      } else {
        got = ctx.recv(0, 5);
      }
    });
    EXPECT_EQ(got, sent) << bytes << " bytes";
    if (bytes <= MessagePayload::kInlineCapacity) {
      EXPECT_EQ(stats.payloadInlineMessages, 1u) << bytes << " bytes";
      EXPECT_EQ(stats.payloadPooledMessages, 0u) << bytes << " bytes";
    } else {
      EXPECT_EQ(stats.payloadPooledMessages, 1u) << bytes << " bytes";
      EXPECT_EQ(stats.payloadPoolReturns, 1u) << bytes << " bytes";
    }
  }
}

TEST_P(SimMpiTest, SteadyStatePooledSendsStopAllocating) {
  // The tentpole invariant: once the pool is warm, pooled sends are served
  // from recycled buffers — reuses grow, allocations stay at the warm-up
  // constant, and every pooled buffer comes back.
  MpiWorld world(testConfig(), 2);
  constexpr int kReps = 100;
  const WorldStats stats = world.run([&](MpiContext& ctx) {
    std::vector<std::byte> payload(4096, std::byte{0x5a});
    const int peer = 1 - ctx.rank();
    const int sendTag = ctx.rank() == 0 ? 7 : 8;
    const int recvTag = ctx.rank() == 0 ? 8 : 7;
    for (int rep = 0; rep < kReps; ++rep) {
      ctx.send(peer, sendTag, payload.size(), payload);
      ctx.recv(peer, recvTag);
    }
  });
  EXPECT_EQ(stats.payloadPooledMessages, 2u * kReps);
  EXPECT_EQ(stats.payloadPoolReturns, stats.payloadPooledMessages);
  EXPECT_EQ(stats.payloadPoolReuses + stats.payloadPoolAllocations,
            stats.payloadPooledMessages);
  // Warm-up allocates at most one buffer per in-flight message direction;
  // everything after that is reuse.
  EXPECT_LE(stats.payloadPoolAllocations, 4u);
  EXPECT_GE(stats.payloadPoolReuses, 2u * kReps - 4u);
}

TEST_P(SimMpiTest, PoolCountersAreShardCountInvariantAndBalanced) {
  // 16 ranks on 8 leaf switches; every rank sends three payload sizes
  // (three pool classes) to a rank three leaves over. On sharded runs the
  // buffers are acquired from the sender's shard pool and parked in the
  // receiver's, so the per-pool counts differ by shard count. The traffic
  // counters (the serialised ones) must not, and the real pools must
  // account for every buffer they handed out.
  struct Serialised {
    std::uint64_t inlineMessages, pooledMessages, returns;
    std::vector<std::pair<std::size_t, std::uint64_t>> classAcquires;
    bool operator==(const Serialised&) const = default;
  };
  const auto runWith = [](int shards) {
    WorldConfig cfg = testConfig();
    cfg.topology.nodesPerLeafSwitch = 2;
    cfg.simShards = shards;
    MpiWorld world(cfg, 16);
    const WorldStats stats = world.run([](MpiContext& ctx) {
      const int n = ctx.size();
      const int dst = (ctx.rank() + 6) % n;
      const int src = (ctx.rank() - 6 + n) % n;
      for (int round = 0; round < 4; ++round) {
        for (const std::size_t bytes : {std::size_t{200}, std::size_t{3000},
                                        std::size_t{20000}, std::size_t{8}}) {
          const std::vector<std::byte> payload(bytes, std::byte{0x3c});
          ctx.send(dst, round, bytes, payload);
          EXPECT_EQ(ctx.recv(src, round), payload);
        }
      }
    });
    EXPECT_EQ(world.payloadPools().size(), static_cast<std::size_t>(shards));
    std::int64_t outstanding = 0;
    for (const PayloadPool& pool : world.payloadPools())
      outstanding += pool.outstandingBuffers();
    EXPECT_EQ(outstanding, 0) << shards << " shards";
    EXPECT_EQ(stats.payloadPoolReuses + stats.payloadPoolAllocations,
              stats.payloadPooledMessages)
        << shards << " shards";
    EXPECT_EQ(stats.payloadPoolReturns, stats.payloadPooledMessages)
        << shards << " shards";
    Serialised out{stats.payloadInlineMessages, stats.payloadPooledMessages,
                   stats.payloadPoolReturns, {}};
    std::uint64_t acquires = 0;
    for (const PayloadPool::ClassStats& cls : stats.payloadPoolClassStats) {
      acquires += cls.acquires;
      if (cls.acquires > 0)
        out.classAcquires.emplace_back(cls.classBytes, cls.acquires);
    }
    EXPECT_EQ(acquires, stats.payloadPooledMessages) << shards << " shards";
    return out;
  };
  const Serialised base = runWith(1);
  EXPECT_EQ(base.inlineMessages, 16u * 4u);
  EXPECT_EQ(base.pooledMessages, 16u * 4u * 3u);
  EXPECT_EQ(base.classAcquires.size(), 3u);
  EXPECT_TRUE(runWith(2) == base);
  EXPECT_TRUE(runWith(8) == base);
}

TEST_P(SimMpiTest, GangFansOutWideWindowsOnlyAndKeepsTheSchedule) {
  // Two worlds on 2-node leaves, run at one and two shards. In the wide one
  // every rank computes in lock-step, so each shard resumes 48 ranks at the
  // same instant: windows worth splitting. In the narrow one a token walks
  // a 16-rank ring: one or two events per window. Which thread runs a
  // window must change nothing: not the windows, not the merge, not the
  // results.
  struct Run {
    double wall;
    std::vector<double> rankFinish;
    std::uint64_t messages, events, switches;
    double flops, wireBytes;
    sim::EngineStats engine;
  };
  const auto run = [](int ranks, int shards,
                       const MpiWorld::RankBody& body) {
    WorldConfig cfg = testConfig();
    cfg.topology.nodesPerLeafSwitch = 2;
    cfg.simShards = shards;
    MpiWorld world(cfg, ranks);
    const WorldStats stats = world.run(body);
    return Run{stats.wallClockSeconds, stats.rankFinishSeconds,
               stats.messageCount, stats.engine.eventsDispatched,
               stats.engine.contextSwitches, stats.totalFlops,
               stats.wireBytes, stats.engine};
  };
  const auto expectSameResults = [](const Run& a, const Run& b) {
    EXPECT_EQ(a.wall, b.wall);
    EXPECT_EQ(a.rankFinish, b.rankFinish);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.switches, b.switches);
    EXPECT_EQ(a.flops, b.flops);
    EXPECT_EQ(a.wireBytes, b.wireBytes);
  };
  const auto expectSameSchedule = [](const Run& a, const Run& b) {
    EXPECT_EQ(a.engine.shardWindows, b.engine.shardWindows);
    EXPECT_EQ(a.engine.shardParallelWindows, b.engine.shardParallelWindows);
    EXPECT_EQ(a.engine.shardMergeRecords, b.engine.shardMergeRecords);
  };
  const MpiWorld::RankBody wide = [](MpiContext& ctx) {
    for (int i = 1; i <= 6; ++i) ctx.computeSeconds(1e-4 * i);
    ctx.allreduceSum(1.0);
  };
  const MpiWorld::RankBody narrow = [](MpiContext& ctx) {
    const int n = ctx.size();
    const int next = (ctx.rank() + 1) % n;
    const int prev = (ctx.rank() + n - 1) % n;
    for (int lap = 0; lap < 3; ++lap) {
      if (ctx.rank() == 0) {
        ctx.sendDoubles(next, lap, std::vector<double>{1.0 * lap});
        ctx.recvDoubles(prev, lap);
      } else {
        const std::vector<double> token = ctx.recvDoubles(prev, lap);
        ctx.computeSeconds(1e-6);
        ctx.sendDoubles(next, lap, token);
      }
    }
  };

  const Run wideBase = run(96, 1, wide);
  const Run narrowBase = run(16, 1, narrow);
  Run wideForced{};
  Run narrowForced{};
  {
    testing::ScopedEnv forced("TIBSIM_SHARD_THREADS", "2");
    wideForced = run(96, 2, wide);
    narrowForced = run(16, 2, narrow);
  }
  testing::ScopedEnv unforced("TIBSIM_SHARD_THREADS", nullptr);
  const Run wideGated = run(96, 2, wide);
  const Run narrowGated = run(16, 2, narrow);

  expectSameResults(wideForced, wideBase);
  expectSameResults(wideGated, wideBase);
  expectSameResults(narrowForced, narrowBase);
  expectSameResults(narrowGated, narrowBase);
  expectSameSchedule(wideGated, wideForced);
  expectSameSchedule(narrowGated, narrowForced);
  // The ring's schedule as the engine ran it before windows were gated;
  // its barriers merge only the 48 wire ops (3 laps x 16 messages).
  EXPECT_EQ(narrowGated.engine.shardWindows, 145u);
  EXPECT_EQ(narrowGated.engine.shardMergeRecords, 48u);

  // A forced gang takes every window with two active shards.
  EXPECT_GT(wideForced.engine.shardParallelWindows, 0u);
  EXPECT_EQ(wideForced.engine.shardFanoutWindows,
            wideForced.engine.shardParallelWindows);
  // Left to the rule, the gang (if the host has one) takes the lock-step
  // windows, and of the ring's only the first: every rank starts at t=0.
  if (std::thread::hardware_concurrency() >= 2) {
    EXPECT_GT(wideGated.engine.shardFanoutWindows, 0u);
    EXPECT_LT(wideGated.engine.shardFanoutWindows,
              wideGated.engine.shardParallelWindows);
    EXPECT_EQ(narrowGated.engine.shardFanoutWindows, 1u);
  } else {
    EXPECT_EQ(wideGated.engine.shardFanoutWindows, 0u);
    EXPECT_EQ(narrowGated.engine.shardFanoutWindows, 0u);
  }
}

// Eager, rendezvous and wildcard traffic plus compute, for the engine-
// layout tests below: a pooled eager payload around the ring, a 64 KiB
// rendezvous exchange between rank pairs, and one wildcard receive at rank
// 0 per other rank. Needs an even rank count.
void mixedTraffic(MpiContext& ctx) {
  const int n = ctx.size();
  const int rank = ctx.rank();
  ctx.compute(perfmodel::WorkProfile{1e6 * (rank + 1), 0.0,
                                     perfmodel::AccessPattern::Resident, 1.0,
                                     1.0, 0.0});
  const std::vector<std::byte> payload(300, std::byte{0x42});
  ctx.send((rank + 1) % n, 1, payload.size(), payload);
  EXPECT_EQ(ctx.recv((rank + n - 1) % n, 1), payload);
  ctx.sendrecv(rank ^ 1, 2, 64 * 1024);
  if (rank == 0) {
    for (int i = 1; i < n; ++i) {
      const std::vector<double> v =  // tibsim-lint: allow(wildcard-recv)
          ctx.recvDoubles(kAnySource, 3);
      EXPECT_EQ(v.size(), 1u);
    }
  } else {
    ctx.computeSeconds(1e-6 * (rank % 3));
    ctx.sendDoubles(0, 3, std::vector<double>{1.0 * rank});
  }
}

// The model-level results of a run: everything serialised except the
// engine's own counters.
struct ModelResults {
  double wall;
  std::vector<double> rankFinish;
  std::uint64_t messages;
  double payloadBytes, wireBytes, flops;
  bool operator==(const ModelResults&) const = default;
};

ModelResults modelResults(const WorldStats& stats) {
  return {stats.wallClockSeconds, stats.rankFinishSeconds, stats.messageCount,
          stats.payloadBytes,     stats.wireBytes,         stats.totalFlops};
}

TEST_P(SimMpiTest, ShardCountFallsBackWhereAWorldCannotShard) {
  // Asking for 8 shards gets as many as the world can cut at leaf
  // switches with a positive lookahead, and the same results as 1 shard.
  const auto runWith = [](int ranks, int perLeaf, double switchLatency,
                          int shards) {
    WorldConfig cfg = testConfig(1, net::Protocol::OpenMx);
    cfg.topology.nodesPerLeafSwitch = perLeaf;
    cfg.topology.switchLatency = switchLatency;
    cfg.simShards = shards;
    MpiWorld world(cfg, ranks);
    return world.run(mixedTraffic);
  };
  struct Case {
    const char* name;
    int ranks, perLeaf;
    double switchLatency;
    std::size_t expectedShards;
  };
  for (const Case& c : {Case{"one leaf", 8, 32, 2.0e-6, 1},
                        Case{"no lookahead", 16, 2, 0.0, 1},
                        Case{"three leaves", 6, 2, 2.0e-6, 3}}) {
    const WorldStats base = runWith(c.ranks, c.perLeaf, c.switchLatency, 1);
    const WorldStats wide = runWith(c.ranks, c.perLeaf, c.switchLatency, 8);
    EXPECT_EQ(base.engine.shardCount, 1u) << c.name;
    EXPECT_EQ(wide.engine.shardCount, c.expectedShards) << c.name;
    EXPECT_TRUE(modelResults(wide) == modelResults(base)) << c.name;
    EXPECT_EQ(wide.engine.eventsDispatched, base.engine.eventsDispatched)
        << c.name;
  }
}

TEST_P(SimMpiTest, RepeatedRunOnOneWorldRepeatsItsResults) {
  // run() rebuilds every engine, so a second run on the same world must
  // not see the first one's slabs, free slots, message ids or counters.
  struct PoolTraffic {
    std::uint64_t inlineMessages, pooledMessages, returns;
    std::vector<std::pair<std::size_t, std::uint64_t>> classAcquires;
    bool operator==(const PoolTraffic&) const = default;
  };
  const auto poolTraffic = [](const WorldStats& stats) {
    PoolTraffic out{stats.payloadInlineMessages, stats.payloadPooledMessages,
                    stats.payloadPoolReturns, {}};
    for (const PayloadPool::ClassStats& cls : stats.payloadPoolClassStats)
      out.classAcquires.emplace_back(cls.classBytes, cls.acquires);
    return out;
  };
  for (const int shards : {1, 2}) {
    WorldConfig cfg = testConfig(1, net::Protocol::OpenMx);
    cfg.topology.nodesPerLeafSwitch = 2;
    cfg.simShards = shards;
    MpiWorld world(cfg, 8);
    const WorldStats first = world.run(mixedTraffic);
    const WorldStats second = world.run(mixedTraffic);
    EXPECT_EQ(first.engine.shardCount, static_cast<std::size_t>(shards));
    EXPECT_GT(first.payloadPooledMessages, 0u);
    EXPECT_TRUE(modelResults(second) == modelResults(first))
        << shards << " shards";
    EXPECT_TRUE(poolTraffic(second) == poolTraffic(first))
        << shards << " shards";
  }
}

// ---------------------------------------------------------------------------
// Communicators: wildcard matching, split/dup, reductions, non-blocking
// collectives, and the task-farm proxy built on them.
// ---------------------------------------------------------------------------

class SimMpiCommunicatorTest : public SimMpiTest {};
TIBSIM_INSTANTIATE_FIBER(SimMpiCommunicatorTest);

TEST_P(SimMpiCommunicatorTest, WorldCommunicatorIsIdentity) {
  MpiWorld world(testConfig(), 4);
  world.run([](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    EXPECT_TRUE(comm.isWorld());
    EXPECT_EQ(comm.id(), 0u);
    EXPECT_EQ(comm.rank(), ctx.rank());
    EXPECT_EQ(comm.size(), ctx.size());
    for (int r = 0; r < ctx.size(); ++r) {
      EXPECT_EQ(comm.worldRank(r), r);
      EXPECT_EQ(comm.commRankOf(r), r);
    }
  });
}

TEST_P(SimMpiCommunicatorTest, WildcardRecvReportsSourceAndTag) {
  MpiWorld world(testConfig(), 2);
  world.run([](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    if (ctx.rank() == 0) {
      comm.sendDoubles(1, 17, std::vector<double>{3.5});
    } else {
      int src = -2;
      int tag = -2;
      const auto bytes =  // tibsim-lint: allow(wildcard-recv)
          comm.recv(kAnySource, kAnyTag, nullptr, &src, &tag);
      EXPECT_EQ(src, 0);
      EXPECT_EQ(tag, 17);
      EXPECT_EQ(bytes.size(), sizeof(double));
    }
  });
}

TEST_P(SimMpiCommunicatorTest, WildcardRecvIsDeterministicAcrossShards) {
  // Four senders race into one wildcard receiver; the matched (src, tag)
  // sequence must be identical for every shard count. Tiny leaf switches
  // force real sharding.
  auto sequence = [](int shards) {
    WorldConfig cfg = testConfig();
    cfg.topology.nodesPerLeafSwitch = 2;
    cfg.simShards = shards;
    MpiWorld world(cfg, 5);
    std::vector<std::pair<int, int>> matched;
    world.run([&](MpiContext& ctx) {
      const Communicator comm = ctx.commWorld();
      if (ctx.rank() == 0) {
        for (int i = 0; i < 4; ++i) {
          int src = -1;
          const std::vector<double> v =  // tibsim-lint: allow(wildcard-recv)
              comm.recvDoubles(kAnySource, 100, &src);
          ASSERT_EQ(v.size(), 1u);
          EXPECT_EQ(v[0], static_cast<double>(src));
          matched.emplace_back(src, 100);
        }
      } else {
        ctx.computeSeconds(1e-6 * (ctx.rank() % 3));
        comm.sendDoubles(0, 100,
                         std::vector<double>{static_cast<double>(ctx.rank())});
      }
    });
    return matched;
  };
  const auto base = sequence(1);
  ASSERT_EQ(base.size(), 4u);
  EXPECT_EQ(sequence(2), base);
  EXPECT_EQ(sequence(4), base);
  EXPECT_EQ(sequence(1), base);  // rerun stability
}

TEST_P(SimMpiCommunicatorTest, SplitOrdersMembersByKeyThenWorldRank) {
  MpiWorld world(testConfig(), 6);
  world.run([](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    // Even/odd halves, keyed by descending world rank: comm-local order
    // inside each colour is reversed relative to world order.
    const Communicator half = comm.split(ctx.rank() % 2, -ctx.rank());
    ASSERT_FALSE(half.isNull());
    EXPECT_EQ(half.size(), 3);
    const std::vector<int> evens = {4, 2, 0};
    const std::vector<int> odds = {5, 3, 1};
    const auto& members = ctx.rank() % 2 == 0 ? evens : odds;
    for (int r = 0; r < 3; ++r) EXPECT_EQ(half.worldRank(r), members[r]);
    EXPECT_EQ(half.worldRank(half.rank()), ctx.rank());
    // Traffic stays comm-local even with clashing tags: neighbours in the
    // ring exchange on the same tag the world also uses elsewhere.
    const int peer = (half.rank() + 1) % half.size();
    const int from = (half.rank() + 2) % half.size();
    half.sendDoubles(peer, 5,
                     std::vector<double>{static_cast<double>(half.rank())});
    const std::vector<double> got = half.recvDoubles(from, 5);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], static_cast<double>(from));
  });
}

TEST_P(SimMpiCommunicatorTest, SplitUndefinedColorYieldsNull) {
  MpiWorld world(testConfig(), 4);
  world.run([](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    const Communicator leaders =
        comm.split(ctx.rank() == 0 ? 0 : kUndefinedColor, ctx.rank());
    if (ctx.rank() == 0) {
      ASSERT_FALSE(leaders.isNull());
      EXPECT_EQ(leaders.size(), 1);
      EXPECT_EQ(leaders.rank(), 0);
    } else {
      EXPECT_TRUE(leaders.isNull());
    }
  });
}

TEST_P(SimMpiCommunicatorTest, SplitMintsDistinctDeterministicIds) {
  auto ids = [this] {
    MpiWorld world(testConfig(), 4);
    std::vector<std::uint64_t> out;
    world.run([&](MpiContext& ctx) {
      const Communicator comm = ctx.commWorld();
      const Communicator a = comm.split(ctx.rank() % 2, ctx.rank());
      const Communicator b = comm.split(0, ctx.rank());
      if (ctx.rank() == 0) out = {a.id(), b.id()};
    });
    return out;
  };
  const auto first = ids();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_NE(first[0], 0u);
  EXPECT_NE(first[1], 0u);
  EXPECT_NE(first[0], first[1]);
  EXPECT_EQ(ids(), first);
}

TEST_P(SimMpiCommunicatorTest, DupIsolatesTrafficFromParent) {
  MpiWorld world(testConfig(), 2);
  world.run([](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    const Communicator clone = comm.dup();
    EXPECT_NE(clone.id(), comm.id());
    EXPECT_EQ(clone.size(), comm.size());
    if (ctx.rank() == 0) {
      // Same destination, same tag, two communicators — delivery order
      // would cross-match them if matching ignored the communicator.
      comm.sendDoubles(1, 9, std::vector<double>{1.0});
      clone.sendDoubles(1, 9, std::vector<double>{2.0});
    } else {
      const std::vector<double> onClone = clone.recvDoubles(0, 9);
      const std::vector<double> onWorld = comm.recvDoubles(0, 9);
      ASSERT_EQ(onClone.size(), 1u);
      ASSERT_EQ(onWorld.size(), 1u);
      EXPECT_EQ(onClone[0], 2.0);
      EXPECT_EQ(onWorld[0], 1.0);
    }
  });
}

TEST_P(SimMpiCommunicatorTest, ReduceOpsMatchExpectedValues) {
  MpiWorld world(testConfig(), 4);
  world.run([](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    const double mine = static_cast<double>(ctx.rank() + 1);  // 1..4
    EXPECT_DOUBLE_EQ(comm.allreduce(mine, ReduceOp::Sum), 10.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(mine, ReduceOp::Min), 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(mine, ReduceOp::Max), 4.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(mine, ReduceOp::Prod), 24.0);
    const double values[2] = {mine, -mine};
    const std::vector<double> atRoot =
        comm.reduce(std::span<const double>(values, 2), ReduceOp::Max, 2);
    if (ctx.rank() == 2) {
      ASSERT_EQ(atRoot.size(), 2u);
      EXPECT_DOUBLE_EQ(atRoot[0], 4.0);
      EXPECT_DOUBLE_EQ(atRoot[1], -1.0);
    } else {
      EXPECT_TRUE(atRoot.empty());
    }
  });
}

TEST_P(SimMpiCommunicatorTest, ReduceAcceptsUserCombineFn) {
  MpiWorld world(testConfig(), 4);
  world.run([](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    const double mine[1] = {static_cast<double>(ctx.rank() + 1)};
    // Commutative-associative user combiner: max of squares.
    const std::vector<double> got = comm.reduce(
        std::span<const double>(mine, 1),
        [](double a, double b) { return a * a > b * b ? a : b; }, 0);
    if (ctx.rank() == 0) {
      ASSERT_EQ(got.size(), 1u);
      EXPECT_DOUBLE_EQ(got[0], 4.0);
    }
  });
}

TEST_P(SimMpiCommunicatorTest, NonblockingCollectivesCompleteAtWait) {
  MpiWorld world(testConfig(), 4);
  world.run([](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    const Communicator::Request barrier = comm.ibarrier();
    comm.wait(barrier);

    std::vector<double> payload;
    if (ctx.rank() == 1) payload = {2.5, -0.5};
    const Communicator::Request bcast = comm.ibcast(std::move(payload), 1);
    const std::vector<double> fromRoot = comm.waitDoubles(bcast);
    EXPECT_EQ(fromRoot, (std::vector<double>{2.5, -0.5}));

    const double mine[1] = {static_cast<double>(ctx.rank() + 1)};
    const Communicator::Request sum =
        comm.iallreduce(std::span<const double>(mine, 1), ReduceOp::Sum);
    const std::vector<double> total = comm.waitDoubles(sum);
    ASSERT_EQ(total.size(), 1u);
    EXPECT_DOUBLE_EQ(total[0], 10.0);
  });
}

TEST_P(SimMpiCommunicatorTest, CollectivesRunOnSplitCommunicators) {
  MpiWorld world(testConfig(), 6);
  world.run([](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    const Communicator half = comm.split(ctx.rank() % 2, ctx.rank());
    half.barrier();
    const std::vector<double> all =
        half.allgather(static_cast<double>(ctx.rank()));
    ASSERT_EQ(all.size(), 3u);
    // Members in comm-local order are world ranks parity, parity+2, ...
    for (int r = 0; r < 3; ++r)
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)],
                       static_cast<double>(2 * r + ctx.rank() % 2));
    EXPECT_DOUBLE_EQ(half.allreduce(1.0, ReduceOp::Sum), 3.0);
  });
}

TEST_P(SimMpiCommunicatorTest, RecvDoublesReportsByteCountAndSource) {
  MpiWorld world(testConfig(), 2);
  try {
    world.run([](MpiContext& ctx) {
      if (ctx.rank() == 0) {
        const std::vector<std::byte> raw(12, std::byte{0});
        ctx.send(1, 3, raw.size(), raw);
      } else {
        ctx.recvDoubles(0, 3);
      }
    });
    FAIL() << "recvDoubles accepted a 12-byte payload";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("12-byte payload"), std::string::npos) << what;
    EXPECT_NE(what.find("from rank 0"), std::string::npos) << what;
  }
}

TEST_P(SimMpiCommunicatorTest, TaskFarmDistributesEveryTaskDeterministically) {
  auto distribution = [](int shards) {
    WorldConfig cfg = testConfig();
    cfg.topology.nodesPerLeafSwitch = 2;
    cfg.simShards = shards;
    MpiWorld world(cfg, 9);
    apps::TaskFarm::Params params;
    params.tasks = 40;
    std::vector<std::uint64_t> perWorker;
    params.tasksPerWorkerOut = &perWorker;
    world.run(apps::TaskFarm::rankBody(params));
    return perWorker;
  };
  const std::vector<std::uint64_t> base = distribution(1);
  ASSERT_EQ(base.size(), 9u);
  EXPECT_EQ(base[0], 0u);  // the master serves, it does not compute
  std::uint64_t total = 0;
  for (std::uint64_t n : base) total += n;
  EXPECT_EQ(total, 40u);
  for (std::size_t w = 1; w < base.size(); ++w)
    EXPECT_GE(base[w], 1u) << "worker " << w << " starved";
  EXPECT_EQ(distribution(2), base);
  EXPECT_EQ(distribution(4), base);
}

TEST_P(SimMpiTest, DeterministicAcrossRuns) {
  auto once = [] {
    MpiWorld world(testConfig(2, net::Protocol::OpenMx), 8);
    const auto stats = world.run([](MpiContext& ctx) {
      ctx.computeSeconds(1e-4 * (ctx.rank() % 3));
      ctx.allreduceSum(1.0);
      ctx.alltoallBytes(10000);
      ctx.barrier();
    });
    return stats.wallClockSeconds;
  };
  EXPECT_DOUBLE_EQ(once(), once());
}

}  // namespace
}  // namespace tibsim::mpi
