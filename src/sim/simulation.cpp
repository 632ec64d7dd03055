#include "tibsim/sim/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "tibsim/common/assert.hpp"

namespace tibsim::sim {

namespace {
// Host-side engine profiling only (EngineStats::hostSeconds, the run-summary
// host s/sim s column) — never serialised into campaign artefacts, so the
// wall-clock reads are safe to allow here.
using HostTimePoint = std::chrono::steady_clock::time_point;  // tibsim-lint: allow(wall-clock)

double secondsSince(HostTimePoint start) {
  const auto now = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
  return std::chrono::duration<double>(now - start).count();
}
}  // namespace

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

Process::Process(Simulation& sim, std::uint64_t id, std::string name,
                 Body body)
    : sim_(sim), id_(id), name_(std::move(name)), body_(std::move(body)) {}

Process::~Process() { kill(); }

void Process::start(std::size_t stackBytes, bool pooledStack) {
  context_ = std::make_unique<ExecutionContext>(stackBytes, pooledStack);
  context_->start([this] {
    if (!killRequested_) {
      try {
        body_(*this);
      } catch (const ProcessKilled&) {
        // Simulation torn down while this process was blocked: unwind.
      } catch (...) {
        // Keep the simulation alive; the owner inspects exception() after
        // the event loop drains and rethrows on its own thread.
        exception_ = std::current_exception();
      }
    }
    finished_ = true;
  });
}

void Process::switchIn() {
  TIB_ASSERT(context_ != nullptr && !finished_);
  sim_.noteContextSwitch();
  context_->switchIn();
  if (finished_) sim_.noteProcessFinished(*this);
}

void Process::yieldToHost() {
  context_->yieldToHost();
  if (killRequested_) throw ProcessKilled{};
}

std::uint64_t Process::beginSuspend() {
  suspended_ = true;
  return ++suspendSeq_;
}

void Process::delay(double dt) {
  TIB_REQUIRE_MSG(dt >= 0.0, "cannot delay by negative time");
  beginSuspend();
  sim_.resumeAt(sim_.now() + dt, *this);
  yieldToHost();
}

void Process::suspend() {
  beginSuspend();
  yieldToHost();
}

double Process::now() const { return sim_.now(); }

void Process::kill() {
  if (context_ == nullptr || finished_) return;
  killRequested_ = true;
  // Run the context until the body has unwound (yieldToHost rethrows the
  // kill as ProcessKilled). A body that swallows ProcessKilled and keeps
  // blocking would loop here.
  while (!finished_) switchIn();
}

// ---------------------------------------------------------------------------
// Simulation::EventQueue
// ---------------------------------------------------------------------------

void Simulation::EventQueue::push(Event ev) {
  heap_.push_back(std::move(ev));
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(heap_[i].key < heap_[parent].key)) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

Simulation::Event Simulation::EventQueue::pop() {
  TIB_ASSERT(!heap_.empty());
  Event out = std::move(heap_.front());
  Event last = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift the former tail down from the root without intermediate swaps.
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1].key < heap_[child].key) ++child;
      if (!(heap_[child].key < last.key)) break;
      heap_[i] = std::move(heap_[child]);
      i = child;
    }
    heap_[i] = std::move(last);
  }
  return out;
}

std::size_t Simulation::EventQueue::countBefore(std::size_t i, double t,
                                               std::size_t cap) const {
  if (cap == 0 || i >= heap_.size() || heap_[i].key.t >= t) return 0;
  std::size_t n = 1;
  n += countBefore(2 * i + 1, t, cap - n);
  n += countBefore(2 * i + 2, t, cap - n);
  return n;
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

Simulation::~Simulation() {
  // Kill blocked processes before members are destroyed; Process::~Process
  // would do it too, but doing it explicitly keeps the order obvious.
  for (auto& p : processes_) p->kill();
}

std::uint32_t Simulation::stashClosure(UniqueFunction fn) {
  if (freeClosureSlots_.empty()) {
    closures_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(closures_.size() - 1);
  }
  const std::uint32_t slot = freeClosureSlots_.back();
  freeClosureSlots_.pop_back();
  closures_[slot] = std::move(fn);
  return slot;
}

Simulation::PushSlot Simulation::takeSlot(Owner hostOwner) {
  if (dispatching_) return reservePush();
  // Outside a dispatch there is nothing to sort after: every host push
  // sits at depth 0 (no dispatch key has t = -inf).
  constexpr EventKey kNoDispatch{-std::numeric_limits<double>::infinity()};
  return PushSlot{kNoDispatch, hostOwner, pushSeq_++};
}

void Simulation::pushQueue(double t, const PushSlot& slot, Process* proc,
                           std::uint64_t aux) {
  // A push at its pusher's own timestamp goes one depth level deeper, so
  // its key is greater than the pusher's: dispatch order stays key order.
  const std::uint64_t depth =
      t == slot.from.t ? std::uint64_t{slot.from.depth()} + 1 : 0;
  queue_.push(Event{EventKey{t, depth << 32 | slot.owner, slot.seq}, proc,
                    aux});
  stats_.queueHighWater = std::max(stats_.queueHighWater, queue_.size());
}

double Simulation::nextEventTime() const {
  TIB_ASSERT(!queue_.empty());
  return queue_.top().key.t;
}

std::uint64_t Simulation::runWindow(double windowEnd) {
  std::uint64_t dispatched = 0;
  while (!queue_.empty() && queue_.top().key.t < windowEnd) {
    Event ev = queue_.pop();
    dispatch(ev);
    ++dispatched;
  }
  return dispatched;
}

Simulation::PushSlot Simulation::reservePush() {
  TIB_REQUIRE_MSG(dispatching_, "reservePush outside a dispatch");
  return PushSlot{current_, runsFor_, pushSeq_++};
}

void Simulation::scheduleChannel(double t, const PushSlot& slot, Owner owner,
                                 UniqueFunction fn) {
  TIB_REQUIRE_MSG(t >= now_,
                  "cross-shard event would land in this shard's past "
                  "(lookahead bound violated)");
  TIB_ASSERT(!dispatching_ && mayRunFor(owner));
  pushQueue(t, slot, nullptr,
            std::uint64_t{owner} << 32 | stashClosure(std::move(fn)));
}

void Simulation::scheduleAt(double t, UniqueFunction fn) {
  scheduleFor(dispatching_ ? runsFor_ : kHost, t, std::move(fn));
}

void Simulation::scheduleFor(Owner owner, double t, UniqueFunction fn) {
  TIB_REQUIRE_MSG(t >= now_, "cannot schedule an event in the past");
  TIB_ASSERT(mayRunFor(owner));
  pushQueue(t, takeSlot(owner), nullptr,
            std::uint64_t{owner} << 32 | stashClosure(std::move(fn)));
}

void Simulation::scheduleIn(double dt, UniqueFunction fn) {
  TIB_REQUIRE(dt >= 0.0);
  scheduleAt(now_ + dt, std::move(fn));
}

Process& Simulation::spawn(std::string name, Process::Body body) {
  TIB_REQUIRE_MSG(nextProcessId_ != kHost, "process ids exhausted");
  auto process = std::unique_ptr<Process>(
      new Process(*this, nextProcessId_++, std::move(name), std::move(body)));
  Process& ref = *process;
  ref.start(stackBytes_, pooledStacks_);
  processes_.push_back(std::move(process));
  ++stats_.processesSpawned;
  ++liveNow_;
  stats_.peakLiveProcesses = std::max(stats_.peakLiveProcesses, liveNow_);
  // The start event runs for the new process; pushed from the host it is
  // also keyed by it, so start events sort in process-id (rank) order.
  scheduleFor(static_cast<Owner>(ref.id_), now_, [&ref] {
    if (!ref.finished()) ref.switchIn();
  });
  return ref;
}

void Simulation::resumeAt(double t, Process& p) {
  TIB_REQUIRE_MSG(t >= now_, "cannot resume a process in the past");
  // Tag the wake-up with the suspension it belongs to: a resume scheduled
  // against suspension N must not fire into suspension N+1 (e.g. a stale
  // mailbox wake-up arriving while the process already sleeps in delay()).
  // Encoded directly in the event — no closure, no slab slot.
  pushQueue(t, takeSlot(static_cast<Owner>(p.id_)), &p, p.suspendSeq_);
}

void Simulation::resume(Process& p) { resumeAt(now_, p); }

double Simulation::run() {
  const auto start = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
  while (!queue_.empty()) {
    Event ev = queue_.pop();
    dispatch(ev);
  }
  stats_.hostSeconds += secondsSince(start);
  return now_;
}

double Simulation::runUntil(double deadline) {
  const auto start = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
  while (!queue_.empty() && queue_.top().key.t <= deadline) {
    Event ev = queue_.pop();
    dispatch(ev);
  }
  if (now_ < deadline && queue_.empty()) now_ = deadline;
  stats_.hostSeconds += secondsSince(start);
  return now_;
}

void Simulation::dispatch(const Event& ev) {
  TIB_ASSERT(ev.key.t >= now_);
  now_ = ev.key.t;
  ++stats_.eventsDispatched;
  current_ = ev.key;
  dispatching_ = true;
  // Cleared on every exit, a throwing callback included, so later host
  // pushes are keyed as host pushes again.
  struct EndDispatch {
    bool& flag;
    ~EndDispatch() { flag = false; }
  } end{dispatching_};
  if (ev.proc != nullptr) {
    Process& p = *ev.proc;
    runsFor_ = static_cast<Owner>(p.id_);
    if (!p.finished_ && p.suspended_ && p.suspendSeq_ == ev.aux) {
      p.suspended_ = false;
      p.switchIn();
    }
    return;
  }
  runsFor_ = static_cast<Owner>(ev.aux >> 32);
  const auto slot = static_cast<std::uint32_t>(ev.aux);
  // Move the closure out and free its slot before invoking: the callback
  // may schedule again and immediately reuse the slot.
  UniqueFunction fn = std::move(closures_[slot]);
  freeClosureSlots_.push_back(slot);
  fn();
}

void Simulation::noteProcessFinished(Process& p) {
  TIB_ASSERT(liveNow_ > 0);
  --liveNow_;
  // Harvest stack telemetry while the context is still alive: the fiber
  // stack is quiescent once the body has unwound, so the scan is exact.
  stats_.fiberStackBytes =
      std::max(stats_.fiberStackBytes, p.context_->stackBytes());
  stats_.stackHighWaterBytes =
      std::max(stats_.stackHighWaterBytes, p.context_->stackHighWaterBytes());
}

std::size_t Simulation::liveProcessCount() const {
  std::size_t live = 0;
  for (const auto& p : processes_)
    if (!p->finished()) ++live;
  return live;
}

EngineStats Simulation::engineStats() const {
  EngineStats out = stats_;
  out.simSeconds = now_;
  return out;
}

}  // namespace tibsim::sim
