// Differential test of the sharded engine: seeded random MPI programs run
// at several shard counts must agree on every result, link counter and
// trace span. Each program draws a leaf layout (so shard cuts fall in
// different places), point-to-point traffic with kAnySource/kAnyTag
// receives and sizes around the 32 KiB eager/rendezvous edge, equal-time
// sends and zero-delay compute, and blocking and non-blocking collectives.
//
// tibsim-lint: allowfile(wildcard-recv) — wildcard receives are what this
// test draws; matching in delivery order is the property under test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "tibsim/arch/registry.hpp"
#include "tibsim/common/rng.hpp"
#include "tibsim/common/units.hpp"
#include "tibsim/mpi/simmpi.hpp"

namespace tibsim::mpi {
namespace {

constexpr std::size_t kRendezvousEdge = 32 * 1024;

enum class RecvKind : std::uint8_t { Exact, AnySource, AnyTag, Any };

struct Transfer {
  int src = 0;
  int dst = 0;
  int tag = 0;
  std::size_t bytes = 0;
  RecvKind recv = RecvKind::Exact;
  bool irecv = false;
};

enum class Op : std::uint8_t {
  PointToPoint,  ///< one round of `messages`, then a world barrier
  AlignClocks,   ///< max-allreduce of now(), then compute up to a grid time
  Compute,       ///< per-rank compute, some of it zero-delay
  Barrier,
  Ibarrier,
  Allreduce,
  Iallreduce,
  Bcast,
  Ibcast,
  BcastBytes,
  Alltoall,
  Allgather,
};

struct Phase {
  Op op = Op::Barrier;
  bool onSplit = false;  ///< collectives: the rank-parity communicator
  ReduceOp reduce = ReduceOp::Sum;
  int root = 0;
  std::size_t bytes = 0;
  double seconds = 0.0;
  std::vector<Transfer> messages;  ///< PointToPoint, in send order
};

struct Program {
  int ranks = 0;
  int ranksPerNode = 1;
  int nodesPerLeaf = 1;
  std::vector<Phase> phases;
};

// Uniform in [0, n).
int below(Rng& rng, int n) {
  return static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(n)));
}

std::size_t drawBytes(Rng& rng) {
  switch (rng.nextBelow(4)) {
    case 0: return rng.nextBelow(512);  // small eager
    case 1: return kRendezvousEdge - 1 - rng.nextBelow(64);
    case 2: return kRendezvousEdge + rng.nextBelow(64);
    default: return kRendezvousEdge + rng.nextBelow(96 * 1024);
  }
}

// One round of point-to-point traffic that cannot deadlock: senders and
// receivers are disjoint, a sender's only blocking send is its last one
// (so every other message is in flight before it blocks), and a receiver
// posts exact receives first, then one kind of partial wildcard, then full
// wildcards — an earlier receive can only take a message a later one would
// have matched too.
Phase drawPointToPoint(Rng& rng, int ranks) {
  Phase phase;
  phase.op = Op::PointToPoint;
  std::vector<int> order(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) order[static_cast<std::size_t>(r)] = r;
  for (int i = ranks - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(below(rng, i + 1))]);
  }
  const int receivers = 1 + below(rng, ranks / 2);
  const RecvKind partial =
      rng.bernoulli(0.5) ? RecvKind::AnySource : RecvKind::AnyTag;
  for (int s = receivers; s < ranks; ++s) {
    const int src = order[static_cast<std::size_t>(s)];
    const int count = 1 + below(rng, 3);
    for (int m = 0; m < count; ++m) {
      Transfer msg;
      msg.src = src;
      msg.dst = order[static_cast<std::size_t>(below(rng, receivers))];
      msg.tag = below(rng, 3);
      msg.bytes = drawBytes(rng);
      const int kind = below(rng, 4);
      msg.recv = kind == 0   ? RecvKind::Exact
                 : kind == 1 ? partial
                             : RecvKind::Any;
      msg.irecv = rng.bernoulli(0.3);
      phase.messages.push_back(msg);
    }
  }
  return phase;
}

Program drawProgram(std::uint64_t seed) {
  Rng rng(seed);
  Program p;
  p.ranksPerNode = 1 + below(rng, 2);
  p.nodesPerLeaf = 1 + below(rng, 4);
  const int leaves = 3 + below(rng, 8);
  // A ragged last leaf (and node) moves the cut points too.
  const int nodes = leaves * p.nodesPerLeaf - below(rng, p.nodesPerLeaf);
  p.ranks =
      std::max(4, nodes * p.ranksPerNode - below(rng, p.ranksPerNode));
  // Every rank starts at t = 0: the first round's sends tie exactly.
  p.phases.push_back(drawPointToPoint(rng, p.ranks));
  const int count = 8 + below(rng, 8);
  for (int i = 0; i < count; ++i) {
    Phase phase;
    switch (rng.nextBelow(12)) {
      case 0:
      case 1:
      case 2:
        phase = drawPointToPoint(rng, p.ranks);
        break;
      case 3:
        phase.op = Op::AlignClocks;
        break;
      case 4:
        phase.op = Op::Compute;
        phase.seconds = rng.bernoulli(0.5) ? 0.0 : rng.uniform(1e-6, 2e-4);
        break;
      case 5:
        phase.op = rng.bernoulli(0.5) ? Op::Barrier : Op::Ibarrier;
        break;
      case 6:
      case 7:
        phase.op = rng.bernoulli(0.5) ? Op::Allreduce : Op::Iallreduce;
        phase.reduce = static_cast<ReduceOp>(rng.nextBelow(3));
        break;
      case 8:
        phase.op = rng.bernoulli(0.5) ? Op::Bcast : Op::Ibcast;
        break;
      case 9:
        phase.op = Op::BcastBytes;
        phase.bytes = drawBytes(rng);
        break;
      case 10:
        phase.op = Op::Alltoall;
        phase.bytes = drawBytes(rng) / 8;
        break;
      default:
        phase.op = Op::Allgather;
        break;
    }
    phase.onSplit = rng.bernoulli(0.3);
    phase.root = below(rng, 2);
    p.phases.push_back(std::move(phase));
  }
  return p;
}

// Everything a rank observes, in the order it observes it: matched
// sources, tags and sizes, collective results and the clock.
using Log = std::vector<std::string>;

std::string hex(double v) {
  std::ostringstream out;
  out << std::hexfloat << v;
  return out.str();
}

void receiveRound(MpiContext& ctx, const Communicator& comm,
                  const std::vector<Transfer>& messages, Log& log) {
  const int me = ctx.rank();
  // Exact receives, then partial wildcards, then full wildcards.
  std::vector<const Transfer*> mine;
  for (const Transfer& m : messages)
    if (m.dst == me) mine.push_back(&m);
  std::stable_sort(mine.begin(), mine.end(),
                   [](const Transfer* a, const Transfer* b) {
                     const auto rank = [](RecvKind k) {
                       return k == RecvKind::Exact ? 0
                              : k == RecvKind::Any ? 2
                                                   : 1;
                     };
                     return rank(a->recv) < rank(b->recv);
                   });
  std::vector<Communicator::Request> requests;
  const auto logMatch = [&](std::size_t bytes, int src, int tag) {
    log.push_back("recv " + std::to_string(src) + " " + std::to_string(tag) +
                  " " + std::to_string(bytes) + " @" + hex(ctx.now()));
  };
  const auto flush = [&] {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      std::size_t bytes = 0;
      comm.wait(requests[i], &bytes);
      logMatch(bytes, -1, -1);  // wait() reports the size only
    }
    requests.clear();
  };
  for (const Transfer* m : mine) {
    const int src = m->recv == RecvKind::Exact || m->recv == RecvKind::AnyTag
                        ? m->src
                        : kAnySource;
    const int tag = m->recv == RecvKind::Exact || m->recv == RecvKind::AnySource
                        ? m->tag
                        : kAnyTag;
    if (m->irecv) {
      requests.push_back(comm.irecv(src, tag));
      continue;
    }
    // Keep receive order: complete the posted irecvs first.
    flush();
    std::size_t bytes = 0;
    int gotSrc = -1;
    int gotTag = -1;
    comm.recv(src, tag, &bytes, &gotSrc, &gotTag);
    logMatch(bytes, gotSrc, gotTag);
  }
  flush();
}

void sendRound(MpiContext& ctx, const Communicator& comm,
               const std::vector<Transfer>& messages) {
  const int me = ctx.rank();
  std::vector<const Transfer*> mine;
  for (const Transfer& m : messages)
    if (m.src == me) mine.push_back(&m);
  std::vector<Communicator::Request> requests;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const Transfer& m = *mine[i];
    // Zero-delay compute between sends keeps them at one instant.
    ctx.computeSeconds(0.0);
    if (i + 1 == mine.size()) {
      comm.send(m.dst, m.tag, m.bytes);  // may be a rendezvous
    } else {
      requests.push_back(comm.isend(m.dst, m.tag, m.bytes));
    }
  }
  comm.waitall(requests);
}

MpiWorld::RankBody programBody(const Program& program,
                               std::vector<Log>& logs) {
  return [&program, &logs](MpiContext& ctx) {
    Log& log = logs[static_cast<std::size_t>(ctx.rank())];
    const Communicator world = ctx.commWorld();
    // Point-to-point rounds run on their own communicator, so wildcards
    // never match collective traffic.
    const Communicator p2p = world.dup();
    const Communicator half = world.split(ctx.rank() % 2, ctx.rank());
    const double mine = 1.0 + 0.25 * ctx.rank();
    for (const Phase& phase : program.phases) {
      const Communicator& coll = phase.onSplit ? half : world;
      const int root = std::min(phase.root, coll.size() - 1);
      switch (phase.op) {
        case Op::PointToPoint:
          sendRound(ctx, p2p, phase.messages);
          receiveRound(ctx, p2p, phase.messages, log);
          world.barrier();
          break;
        case Op::AlignClocks: {
          // Every rank computes up to one grid instant past the latest
          // clock (leaving the allreduce itself ample room), so the next
          // round's sends tie exactly.
          const double latest = world.allreduce(ctx.now(), ReduceOp::Max);
          constexpr double kGrid = 0x1p-10;
          const double target = (std::floor(latest / kGrid) + 4.0) * kGrid;
          ctx.computeSeconds(target - ctx.now());
          break;
        }
        case Op::Compute:
          ctx.compute(perfmodel::WorkProfile{
              phase.seconds * 1e9 * (1 + ctx.rank() % 3), 1e3 * ctx.rank(),
              perfmodel::AccessPattern::Resident, 1.0, 1.0, 0.0});
          ctx.computeSeconds(0.0);
          break;
        case Op::Barrier:
          coll.barrier();
          break;
        case Op::Ibarrier: {
          const auto req = coll.ibarrier();
          ctx.computeSeconds(0.0);
          coll.wait(req);
          break;
        }
        case Op::Allreduce:
          log.push_back("allreduce " + hex(coll.allreduce(mine, phase.reduce)));
          break;
        case Op::Iallreduce: {
          const double v[2] = {mine, -mine};
          const auto req = coll.iallreduce(v, phase.reduce);
          ctx.computeSeconds(1e-6);
          for (const double r : coll.waitDoubles(req))
            log.push_back("iallreduce " + hex(r));
          break;
        }
        case Op::Bcast:
          for (const double r : coll.bcast({mine, 2 * mine}, root))
            log.push_back("bcast " + hex(r));
          break;
        case Op::Ibcast: {
          const auto req = coll.ibcast({mine}, root);
          for (const double r : coll.waitDoubles(req))
            log.push_back("ibcast " + hex(r));
          break;
        }
        case Op::BcastBytes:
          coll.bcastBytes(phase.bytes, root);
          break;
        case Op::Alltoall:
          coll.alltoallBytes(phase.bytes);
          break;
        case Op::Allgather:
          for (const double r : coll.allgather(ctx.now()))
            log.push_back("allgather " + hex(r));
          break;
      }
      log.push_back("t " + hex(ctx.now()));
    }
  };
}

void put(std::vector<std::string>& out, const std::string& name,
         const obs::LinkKindCounters& k) {
  std::ostringstream line;
  line << name << ' ' << hex(k.busySeconds) << ' ' << hex(k.bytes) << ' '
       << k.transfers << ' ' << hex(k.queueSeconds) << ' '
       << hex(k.maxLinkBusySeconds);
  for (const auto c : k.queueDelay.counts) line << ' ' << c;
  out.push_back(line.str());
}

// The run as lines: world results, link counters, critical path, every
// rank's observations and every trace span.
std::vector<std::string> runProgram(const Program& program, int shards,
                                    std::size_t* shardCount) {
  WorldConfig cfg;
  cfg.platform = arch::PlatformRegistry::tegra2();
  cfg.frequencyHz = units::ghz(1.0);
  cfg.protocol = net::Protocol::OpenMx;
  cfg.ranksPerNode = program.ranksPerNode;
  cfg.topology.nodesPerLeafSwitch = program.nodesPerLeaf;
  cfg.simShards = shards;
  cfg.traceMode = obs::TraceMode::Full;
  MpiWorld world(cfg, program.ranks);
  world.enableTracing();
  std::vector<Log> logs(static_cast<std::size_t>(program.ranks));
  const WorldStats stats = world.run(programBody(program, logs));
  *shardCount = stats.engine.shardCount;

  std::vector<std::string> out;
  std::ostringstream head;
  head << "wall " << hex(stats.wallClockSeconds) << " flops "
       << hex(stats.totalFlops) << " dram " << hex(stats.totalDramBytes)
       << " messages " << stats.messageCount << " payload "
       << hex(stats.payloadBytes) << " wire " << hex(stats.wireBytes)
       << " queueing " << hex(stats.fabricQueueingSeconds) << " events "
       << stats.engine.eventsDispatched << " switches "
       << stats.engine.contextSwitches;
  out.push_back(head.str());
  for (std::size_t r = 0; r < stats.rankFinishSeconds.size(); ++r)
    out.push_back("finish " + std::to_string(r) + " " +
                  hex(stats.rankFinishSeconds[r]));
  for (std::size_t n = 0; n < stats.nodeBusySeconds.size(); ++n)
    out.push_back("node " + std::to_string(n) + " " +
                  hex(stats.nodeBusySeconds[n]) + " " +
                  hex(stats.nodeCommCpuSeconds[n]));
  put(out, "uplink", stats.linkStats.uplink);
  put(out, "core", stats.linkStats.core);
  put(out, "downlink", stats.linkStats.downlink);
  const obs::CriticalPath& cp = stats.criticalPath;
  out.push_back("path " + hex(cp.computeSeconds) + " " + hex(cp.sendSeconds) +
                " " + hex(cp.recvSeconds) + " " + hex(cp.linkSeconds) + " " +
                hex(cp.waitSeconds) + " " + std::to_string(cp.edges) + " " +
                std::to_string(cp.endRank));
  for (std::size_t r = 0; r < logs.size(); ++r)
    for (const std::string& line : logs[r])
      out.push_back("rank " + std::to_string(r) + " " + line);
  for (const TraceSpan& s : world.tracer().retainedSpans()) {
    std::ostringstream span;
    span << "span " << s.rank << ' ' << toString(s.kind) << ' '
         << hex(s.begin) << ' ' << hex(s.end) << ' ' << s.peer << ' '
         << s.bytes << ' ' << s.comm;
    out.push_back(span.str());
  }
  return out;
}

class ShardDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardDifferential, RandomProgramAgreesAtEveryShardCount) {
  const Program program = drawProgram(GetParam());
  std::size_t baseShards = 0;
  const std::vector<std::string> base = runProgram(program, 1, &baseShards);
  ASSERT_EQ(baseShards, 1u);
  std::size_t maxShards = 1;
  for (const int shards : {2, 3, 8}) {
    std::size_t used = 0;
    const std::vector<std::string> run = runProgram(program, shards, &used);
    maxShards = std::max(maxShards, used);
    ASSERT_EQ(run.size(), base.size()) << shards << " shards";
    const auto diff = std::mismatch(base.begin(), base.end(), run.begin());
    ASSERT_TRUE(diff.first == base.end())
        << shards << " shards (" << used << " used), line "
        << (diff.first - base.begin()) << ":\n  1 shard:  " << *diff.first
        << "\n  sharded:  " << *diff.second;
  }
  // Every program has at least three leaf switches, so it does shard.
  EXPECT_GE(maxShards, 3u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDifferential,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace tibsim::mpi
