// Engine partition and sharded logical-process execution for MpiWorld.
//
// The world is cut at leaf-switch boundaries into contiguous rank ranges,
// one Simulation per shard, whose process ids are the global ranks. One
// shard is the single queue: its Simulation dispatches directly and every
// DeferredOp runs as it is submitted. Several shards are driven in
// conservative windows by sim::ShardScheduler with the fabric's one-hop
// cut-through latency as the lookahead bound. The serialised campaign
// artefacts are byte-identical for ANY shard count because there is one
// event order at every shard count, by construction:
//
//  * every event's key (t, depth, owner, count) comes from the state of the
//    rank whose dispatch pushed it (sim/simulation.hpp), so a shard
//    dispatches its events in the order one queue would;
//  * side effects several shards feed — fabric occupancy with the arrival
//    event it schedules, and trace spans — are deferred in-window and run
//    at the barrier, serially, merged across shards by the key of the
//    dispatch that caused them: the order one queue ran them in;
//  * everything else is per-rank or per-node state inside one shard
//    (compute totals, CPU seconds, finish times) or an order-free counter
//    (message counts, payload-pool traffic), summed in rank or shard order
//    at the end.
//
// Anything in-window therefore touches only shard-local state; anything
// global happens at a barrier on one thread. That split is also what the
// tibsim_lint shard-shared rule enforces syntactically.

#include <algorithm>
#include <chrono>
#include <string>

#include "tibsim/common/assert.hpp"
#include "tibsim/mpi/simmpi.hpp"

namespace tibsim::mpi {

namespace {
// Host-side profiling only (EngineStats::hostSeconds — never serialised).
double secondsSince(std::chrono::steady_clock::time_point start) {  // tibsim-lint: allow(wall-clock)
  const auto now = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
  return std::chrono::duration<double>(now - start).count();
}

}  // namespace

int MpiWorld::effectiveSimShards() const {
  const int requested = std::clamp(config_.simShards, 1, 1024);
  if (requested <= 1) return 1;
  // No positive lookahead means no conservative window: single queue.
  if (config_.topology.switchLatency <= 0.0) return 1;
  const int perLeaf = std::max(config_.topology.nodesPerLeafSwitch, 1);
  const int leafCount = (nodes_ + perLeaf - 1) / perLeaf;
  // Shards are cut at leaf-switch boundaries, so a one-leaf world (where
  // every message is at most one hop from every other rank) cannot shard.
  if (leafCount < 2) return 1;
  return std::min(requested, leafCount);
}

void MpiWorld::buildEngines(int shards) {
  // Leaf-switch-contiguous partition: shardOfLeaf = leaf * S / leafCount.
  // Contiguous leaves (hence nodes, hence ranks) per shard means every
  // same-node and same-leaf message stays shard-local. One shard holds
  // every rank.
  const int perLeaf = std::max(config_.topology.nodesPerLeafSwitch, 1);
  const int leafCount = (nodes_ + perLeaf - 1) / perLeaf;
  shardOfRank_.assign(static_cast<std::size_t>(ranks_), 0);
  for (int r = 0; r < ranks_; ++r) {
    const int leaf = nodeOfRank(r) / perLeaf;
    shardOfRank_[static_cast<std::size_t>(r)] = (leaf * shards) / leafCount;
  }
  engines_.resize(static_cast<std::size_t>(shards));
  for (Engine& e : engines_) e.firstRank = -1;
  for (int r = 0; r < ranks_; ++r) {
    Engine& e = engineOf(r);
    if (e.firstRank < 0) e.firstRank = r;
    e.endRank = r + 1;
  }
  if (sharded_) {
    scheduler_ =
        std::make_unique<sim::ShardScheduler>(fabric_->lookaheadSeconds());
  }
  for (Engine& e : engines_) {
    TIB_ASSERT(e.firstRank >= 0);  // the leaf map is surjective for
                                   // shards <= leafCount
    // Process ids are global ranks, so event keys are too.
    e.sim = std::make_unique<sim::Simulation>(
        config_.fiberStackBytes,
        static_cast<sim::Simulation::Owner>(e.firstRank));
    // Huge worlds lease fiber stacks from the slab arena so the VMA count
    // stays far below vm.max_map_count (private guarded stacks cost 2
    // each). The world-level (not per-shard) rank count decides, so the
    // policy is identical under every --sim-shards value.
    e.sim->setPooledStacks(ranks_ >= sim::kPooledStacksMinRanks);
    // Roughly eager-send + wake-up per rank in flight at any moment.
    e.sim->reserveEvents(static_cast<std::size_t>(e.endRank - e.firstRank) *
                         4);
    if (sharded_) scheduler_->addShard(e.sim.get());
  }
}

void MpiWorld::submitWireOp(Engine& eng, DeferredOp&& op) {
  op.submitT = eng.sim->now();
  if (!sharded_) {
    // One queue: no other shard can observe the effect, so it runs now.
    executeOp(op);
    return;
  }
  // Fabric occupancy is global state: defer the wire arithmetic and the
  // arrival push to the barrier. The push position is taken now, so the
  // arrival is keyed exactly as the single queue's immediate push.
  op.slot = eng.sim->reservePush();
  eng.ops.push_back(std::move(op));
}

void MpiWorld::executeOp(DeferredOp& op) {
  const double arrival = fabric_->scheduleWire(op.fromNode, op.toNode,
                                               op.wireBytes, op.submitT);
  const int dst = op.dstRank;
  const auto owner = static_cast<sim::Simulation::Owner>(dst);
  // On the single queue the arrival is an ordinary push made by the
  // running dispatch; at a barrier it is keyed by the slot that dispatch
  // reserved — the same key.
  const auto push = [this, &op, dst, owner, arrival](auto fn) {
    if (!sharded_) {
      engines_.front().sim->scheduleFor(owner, arrival, std::move(fn));
    } else {
      scheduler_->channelPush(static_cast<std::size_t>(shardOfRank(dst)),
                              arrival, op.slot, owner, std::move(fn));
    }
  };
  switch (op.kind) {
    case DeferredOp::Kind::Deliver: {
      const std::uint32_t slot = stashFor(dst, std::move(op.message));
      push([this, dst, slot] { deliver(dst, slot); });
      break;
    }
    case DeferredOp::Kind::DataArrival: {
      const std::uint64_t id = op.id;
      const obs::PathSnapshot path = op.path;
      const double depart = op.submitT;
      push([this, dst, id, path, depart] {
        dataArrived(dst, id, path, depart);
      });
      break;
    }
    case DeferredOp::Kind::CtsResume: {
      // The sender adopts the receiver's chain (plus the CTS hop) inside
      // its own shard, exactly when the single queue would.
      MpiContext* sender = contexts_[static_cast<std::size_t>(dst)].get();
      sim::Simulation* sim = &simFor(dst);
      const obs::PathSnapshot path = op.path;
      const double link = std::max(0.0, arrival - op.submitT);
      push([sim, sender, path, link] {
        sender->adoptPath(path, link);
        sim->resume(sender->process_);
      });
      break;
    }
  }
}

namespace {

// Run the items of every engine's `list` — each list already in key order,
// since a shard dispatches in key order — merged across engines by the key
// of the dispatch each came `from`, then clear the lists. `live` is
// scratch. Returns the number of items run.
template <class Engine, class Item, class From, class Run>
std::uint64_t mergeByKey(std::vector<Engine>& engines,
                         std::vector<Item> Engine::*list,
                         std::vector<std::pair<std::size_t, std::size_t>>& live,
                         From from, Run run) {
  // (engine, cursor) of each list with items left; most barriers find one.
  live.clear();
  for (std::size_t e = 0; e < engines.size(); ++e)
    if (!(engines[e].*list).empty()) live.emplace_back(e, 0);
  const auto head = [&](const std::pair<std::size_t, std::size_t>& l)
      -> Item& { return (engines[l.first].*list)[l.second]; };
  std::uint64_t merged = 0;
  while (!live.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < live.size(); ++i)
      if (from(head(live[i])) < from(head(live[best]))) best = i;
    run(head(live[best]));
    ++merged;
    std::vector<Item>& items = engines[live[best].first].*list;
    if (++live[best].second == items.size()) {
      items.clear();
      live[best] = live.back();
      live.pop_back();
    }
  }
  return merged;
}

}  // namespace

void MpiWorld::shardBarrier() {
  shardMergeRecords_ += mergeByKey(
      engines_, &Engine::ops, mergeScratch_,
      [](const DeferredOp& op) -> const sim::EventKey& { return op.slot.from; },
      [this](DeferredOp& op) { executeOp(op); });
  shardMergeRecords_ += mergeByKey(
      engines_, &Engine::spans, mergeScratch_,
      [](const PendingSpan& p) -> const sim::EventKey& { return p.from; },
      [this](const PendingSpan& p) { tracer_.record(p.span); });
}

sim::EngineStats MpiWorld::runShardWindows() {
  // Barrier counters feed EngineStats (the run summary's shard-gang table);
  // two clock reads per window barrier are noise next to the merge itself.
  double barrierSeconds = 0.0;
  std::uint64_t barrierCalls = 0;
  std::uint64_t barrierSkips = 0;
  shardMergeRecords_ = 0;
  // A barrier with no pending op has nothing the next window needs: let
  // compute-phase windows batch their trace spans. The cap bounds the
  // span memory between real merges.
  constexpr std::size_t kBarrierBatchSpans = 32768;
  const auto maybeBarrier = [this, &barrierSkips, &barrierCalls] {
    bool pending = false;
    std::size_t spans = 0;
    for (const Engine& e : engines_) {
      pending = pending || !e.ops.empty();
      spans += e.spans.size();
    }
    if (!pending && spans < kBarrierBatchSpans) {
      ++barrierSkips;
      return;
    }
    ++barrierCalls;
    shardBarrier();
  };
  const auto start = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
  const double finalTime = scheduler_->run([&maybeBarrier, &barrierSeconds] {
    const auto t0 = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
    maybeBarrier();
    barrierSeconds += secondsSince(t0);
  });
  // Final flush: merge whatever the batching left behind (the drain-time
  // barrier may have skipped) before the stats below are assembled.
  {
    const auto t0 = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
    ++barrierCalls;
    shardBarrier();
    barrierSeconds += secondsSince(t0);
  }
  const double hostSeconds = secondsSince(start);

  sim::EngineStats merged;
  merged.simSeconds = finalTime;
  merged.hostSeconds = hostSeconds;
  merged.shardCount = engines_.size();
  merged.shardWindows = scheduler_->windowsRun();
  merged.shardParallelWindows = scheduler_->parallelWindowsRun();
  merged.shardFanoutWindows = scheduler_->fanoutWindowsRun();
  merged.shardBarrierCalls = barrierCalls;
  merged.shardBarrierSkips = barrierSkips;
  merged.shardMergeRecords = shardMergeRecords_;
  merged.shardBarrierHostSeconds = barrierSeconds;
  for (Engine& e : engines_) {
    const sim::EngineStats es = e.sim->engineStats();
    merged.eventsDispatched += es.eventsDispatched;
    merged.contextSwitches += es.contextSwitches;
    merged.processesSpawned += es.processesSpawned;
    // Per-shard queues peak at different moments: the max is a bound
    // for perfbench, not the single queue's figure (never serialised).
    merged.queueHighWater = std::max(merged.queueHighWater, es.queueHighWater);
    // Every rank is spawned before the first event, so the per-shard peaks
    // are simultaneous and their sum is the global peak (= ranks), exactly
    // what the single queue reports.
    merged.peakLiveProcesses += es.peakLiveProcesses;
    merged.fiberStackBytes =
        std::max(merged.fiberStackBytes, es.fiberStackBytes);
    merged.stackHighWaterBytes =
        std::max(merged.stackHighWaterBytes, es.stackHighWaterBytes);
  }
  return merged;
}

}  // namespace tibsim::mpi
