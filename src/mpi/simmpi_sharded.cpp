// Engine partition and sharded logical-process execution for MpiWorld.
//
// The world is cut at leaf-switch boundaries into contiguous rank ranges,
// one Simulation per shard. One shard is the single queue: its Simulation
// dispatches directly and every DeferredOp runs as it is submitted. Several
// shards are driven in conservative windows by sim::ShardScheduler with the
// fabric's one-hop cut-through latency as the lookahead bound. Everything
// below exists to keep the serialised campaign artefacts byte-identical to
// the single queue for ANY shard count:
//
//  * each shard logs its dispatches under canonical (t, ord1, ord2) keys
//    (sim/simulation.hpp); the window barrier k-way-merges the logs into
//    the exact order the single global queue would have dispatched,
//    assigning every dispatch its global ordinal along the way;
//  * side effects whose result depends on that global order — fabric
//    occupancy, totalFlops/totalDramBytes folds, trace spans, the queue
//    high-water mark, and every event pushed toward another shard — were
//    deferred in-window and are replayed here, serially, in the merged
//    order;
//  * order-free counters (message counts, per-node CPU seconds, per-rank
//    finish times, payload-pool traffic counters) stay in-window on
//    shard-disjoint state and are summed at the end.
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
  for (Engine& e : engines_) {
    TIB_ASSERT(e.firstRank >= 0);  // the leaf map is surjective for
                                   // shards <= leafCount
    e.sim = std::make_unique<sim::Simulation>(config_.fiberStackBytes);
    // Huge worlds lease fiber stacks from the slab arena so the VMA count
    // stays far below vm.max_map_count (private guarded stacks cost 2
    // each). The world-level (not per-shard) rank count decides, so the
    // policy is identical under every --sim-shards value.
    e.sim->setPooledStacks(ranks_ >= sim::kPooledStacksMinRanks);
    // Roughly eager-send + wake-up per rank in flight at any moment.
    e.sim->reserveEvents(static_cast<std::size_t>(e.endRank - e.firstRank) *
                         4);
  }
}

void MpiWorld::attachShardScheduler() {
  scheduler_ =
      std::make_unique<sim::ShardScheduler>(fabric_->lookaheadSeconds());
  for (Engine& e : engines_) {
    // Process ids ARE global ranks: canonical keys across shards then merge
    // in rank order, matching the single queue's spawn-order tie-break.
    e.sim->enableShardMode(static_cast<std::uint64_t>(e.firstRank));
    scheduler_->addShard(e.sim.get());
  }
}

void MpiWorld::submitWireOp(Engine& eng, DeferredOp&& op) {
  op.submitT = eng.sim->now();
  if (!sharded_) {
    // One queue: no other shard can observe the effect, so it runs now.
    executeOp(op, kPushNow);
    return;
  }
  // Fabric occupancy is global state: defer the wire arithmetic and the
  // arrival push to the barrier, replayed in canonical order.
  op.dispatchIndex = eng.sim->currentDispatchIndex();
  // Reserve the push's position within the submitting dispatch: the event
  // pushed at the barrier sorts exactly where the single queue's immediate
  // push would have — (G of this dispatch, this index).
  op.pushIdx = eng.sim->notePendingPush();
  ++eng.pendingChannelOps;
  eng.ops.push_back(std::move(op));
}

void MpiWorld::executeOp(DeferredOp& op, std::uint64_t g) {
  if (op.kind == DeferredOp::Kind::StatFold) {
    stats_.totalFlops += op.flops;
    stats_.totalDramBytes += op.dramBytes;
    return;
  }
  const double arrival = fabric_->scheduleWire(op.fromNode, op.toNode,
                                               op.wireBytes, op.submitT);
  // On the single queue the arrival is an ordinary push; at a barrier it
  // lands under the submitting dispatch's merged key.
  const auto push = [this, &op, g, arrival](int shard, auto fn) {
    const auto s = static_cast<std::size_t>(shard);
    if (g == kPushNow) {
      engines_[s].sim->scheduleAt(arrival, std::move(fn));
    } else {
      scheduler_->channelPush(s, arrival, g, op.pushIdx, std::move(fn));
    }
  };
  switch (op.kind) {
    case DeferredOp::Kind::Deliver: {
      const int dst = op.dstRank;
      const std::uint32_t slot = stashFor(dst, std::move(op.message));
      push(shardOfRank(dst), [this, dst, slot] { deliver(dst, slot); });
      break;
    }
    case DeferredOp::Kind::DataArrival: {
      const int dst = op.dstRank;
      const std::uint64_t id = op.id;
      const obs::PathSnapshot path = op.path;
      const double depart = op.submitT;
      push(shardOfRank(dst), [this, dst, id, path, depart] {
        dataArrived(dst, id, path, depart);
      });
      break;
    }
    case DeferredOp::Kind::CtsResume: {
      sim::Simulation* sim =
          engines_[static_cast<std::size_t>(op.targetShard)].sim.get();
      sim::Process* sender = op.sender;
      // The sender adopts the receiver's chain (plus the CTS hop) inside
      // its own shard, exactly when the single queue would.
      MpiContext* senderCtx = op.senderCtx;
      const obs::PathSnapshot path = op.path;
      const double link = std::max(0.0, arrival - op.submitT);
      push(op.targetShard, [sim, sender, senderCtx, path, link] {
        senderCtx->adoptPath(path, link);
        sim->resume(*sender);
      });
      break;
    }
    case DeferredOp::Kind::StatFold:
      break;  // folded above
  }
}

void MpiWorld::shardBarrier() {
  const std::size_t shardCount = engines_.size();
  if (shardOrdByDispatch_.size() < shardCount)
    shardOrdByDispatch_.resize(shardCount);
  for (std::size_t s = 0; s < shardCount; ++s) {
    Engine& e = engines_[s];
    e.logCursor = 0;
    e.opCursor = 0;
    e.spanCursor = 0;
    shardOrdByDispatch_[s].assign(e.sim->dispatchLog().size(), 0);
  }
  // K-way merge of the shards' dispatch logs into the order the single
  // global queue would have dispatched this window's events, numbering
  // each dispatch with its global ordinal as it merges. A provisional
  // record key references an earlier dispatch in the SAME shard's log, so
  // by the time a record reaches its log's head its ordinal is resolvable.
  // Scan only shards that still hold unmerged records; most windows have
  // one busy shard, where the merge degenerates to a linear walk.
  mergeScratch_.clear();
  for (std::size_t s = 0; s < shardCount; ++s) {
    if (!engines_[s].sim->dispatchLog().empty()) mergeScratch_.push_back(s);
  }
  for (;;) {
    std::size_t bestShard = 0;
    const sim::Simulation::DispatchRecord* bestRec = nullptr;
    std::uint64_t bestOrd1 = 0;
    for (std::size_t live = 0; live < mergeScratch_.size(); ++live) {
      const std::size_t s = mergeScratch_[live];
      Engine& e = engines_[s];
      const auto& log = e.sim->dispatchLog();
      if (e.logCursor >= log.size()) continue;
      const auto& rec = log[e.logCursor];
      std::uint64_t ord1 = rec.ord1;
      if ((ord1 & sim::Simulation::kProvisionalOrd) != 0) {
        ord1 = shardOrdByDispatch_[s][static_cast<std::size_t>(
            ord1 & ~sim::Simulation::kProvisionalOrd)];
      }
      if (bestRec == nullptr || rec.t < bestRec->t ||
          (rec.t == bestRec->t &&
           (ord1 < bestOrd1 ||
            (ord1 == bestOrd1 && rec.ord2 < bestRec->ord2)))) {
        bestShard = s;
        bestRec = &rec;
        bestOrd1 = ord1;
      }
    }
    if (bestRec == nullptr) break;
    Engine* best = &engines_[bestShard];
    const auto idx = static_cast<std::uint32_t>(best->logCursor++);
    shardOrdByDispatch_[bestShard][idx] = nextGlobalOrd_++;
    ++shardMergeRecords_;

    // Virtual single-queue size replay: the dispatch popped one event and
    // pushed `pushes` (in-window pushes plus deferred channel pushes, which
    // the single queue would have pushed during this same dispatch). The
    // high-water candidate peaks after the last push.
    if (bestRec->pushes > 0) {
      mergedQueueHighWater_ = std::max(
          mergedQueueHighWater_, mergedQueueSize_ - 1 + bestRec->pushes);
    }
    mergedQueueSize_ = mergedQueueSize_ - 1 + bestRec->pushes;

    const std::uint64_t g = shardOrdByDispatch_[bestShard][idx];
    while (best->opCursor < best->ops.size() &&
           best->ops[best->opCursor].dispatchIndex == idx)
      executeOp(best->ops[best->opCursor++], g);
    while (best->spanCursor < best->spans.size() &&
           best->spans[best->spanCursor].dispatchIndex == idx)
      tracer_.record(best->spans[best->spanCursor++].span);
    if (best->logCursor >= best->sim->dispatchLog().size()) {
      const auto drained = std::find(mergeScratch_.begin(),
                                     mergeScratch_.end(), bestShard);
      *drained = mergeScratch_.back();
      mergeScratch_.pop_back();
    }
  }
  for (std::size_t s = 0; s < shardCount; ++s) {
    Engine& e = engines_[s];
    TIB_ASSERT(e.opCursor == e.ops.size());
    TIB_ASSERT(e.spanCursor == e.spans.size());
    e.ops.clear();
    e.spans.clear();
    e.pendingChannelOps = 0;
    // Resolve surviving provisional event keys against this window's
    // ordinals and clear the dispatch log.
    e.sim->finalizeWindowKeys(shardOrdByDispatch_[s]);
  }
}

sim::EngineStats MpiWorld::runShardWindows() {
  // Seed the virtual global-queue replay with the spawn start events (the
  // single queue pushes one per rank before the first dispatch).
  mergedQueueSize_ = static_cast<std::uint64_t>(ranks_);
  mergedQueueHighWater_ = static_cast<std::uint64_t>(ranks_);
  nextGlobalOrd_ = 1;

  // Barrier counters feed EngineStats (the run summary's shard-gang table);
  // two clock reads per window barrier are noise next to the merge itself.
  double barrierSeconds = 0.0;
  std::uint64_t barrierCalls = 0;
  std::uint64_t barrierSkips = 0;
  shardMergeRecords_ = 0;
  // A barrier with no pending channel ops has nothing another shard can
  // observe: defer the merge and let compute-phase windows batch. The cap
  // bounds the accumulated dispatch-log/op memory between real merges.
  constexpr std::size_t kBarrierBatchRecords = 32768;
  const auto maybeBarrier = [this, &barrierSkips, &barrierCalls] {
    std::uint64_t pending = 0;
    std::size_t records = 0;
    for (Engine& e : engines_) {
      pending += e.pendingChannelOps;
      records += e.sim->dispatchLog().size();
    }
    if (pending == 0 && records < kBarrierBatchRecords) {
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
  merged.queueHighWater = static_cast<std::size_t>(mergedQueueHighWater_);
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
