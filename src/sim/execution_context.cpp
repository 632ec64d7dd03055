#include "tibsim/sim/execution_context.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

#include "tibsim/common/assert.hpp"
#include "tibsim/obs/stack_telemetry.hpp"

// TIBSIM_ASAN / TIBSIM_TSAN come from execution_context.hpp.
#if TIBSIM_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#if TIBSIM_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace tibsim::sim {

namespace {

#if TIBSIM_ASAN
void asanStartSwitch(void** fakeStackSave, const void* bottom,
                     std::size_t size) {
  __sanitizer_start_switch_fiber(fakeStackSave, bottom, size);
}
void asanFinishSwitch(void* fakeStackSave, const void** bottomOld,
                      std::size_t* sizeOld) {
  __sanitizer_finish_switch_fiber(fakeStackSave, bottomOld, sizeOld);
}
#elif TIBSIM_TSAN
void asanStartSwitch(void**, const void*, std::size_t) {}
void asanFinishSwitch(void*, const void**, std::size_t*) {}
#endif

// Flags 0 keep the switch a synchronisation point: everything the thread
// did before it happens-before what the target fiber does next, which is
// the engine's one-party-runs-at-a-time contract.
#if TIBSIM_TSAN
void* tsanCreateFiber() { return __tsan_create_fiber(0); }
void tsanDestroyFiber(void* fiber) { __tsan_destroy_fiber(fiber); }
void* tsanCurrentFiber() { return __tsan_get_current_fiber(); }
void tsanSwitchTo(void* fiber) { __tsan_switch_to_fiber(fiber, 0); }
#elif TIBSIM_ASAN
void* tsanCreateFiber() { return nullptr; }
void tsanDestroyFiber(void*) {}
void* tsanCurrentFiber() { return nullptr; }
void tsanSwitchTo(void*) {}
#endif

// ---------------------------------------------------------------------------
// FiberStackArena — slab-allocated fiber stacks for huge worlds. Each kernel
// VMA is a protection boundary, so the per-fiber layout (PROT_NONE guard +
// RW stack) costs 2 VMAs per fiber and a 65,536-rank world blows through
// vm.max_map_count (default 65530) before the last rank spawns. The arena
// instead mmaps multi-megabyte slabs of [sentinel page][stack] units behind
// a single PROT_NONE guard page: uniform RW protection keeps the whole unit
// run in one VMA, so a slab costs 2 VMAs regardless of how many stacks it
// carries. The sentinel page below each stack stays pattern-filled; release
// verifies it, converting a silent overflow into a deterministic contract
// failure (detection moves from fault-at-write to checked-at-release — the
// bottom stack of each slab still faults on the slab guard). Released
// stacks are recycled across worlds and their pages returned to the kernel
// with MADV_DONTNEED, so campaign RSS tracks the largest live world, not
// the sum of worlds run.
// ---------------------------------------------------------------------------

class FiberStackArena {
 public:
  static FiberStackArena& instance() {
    // tibsim-lint: allow(shard-shared) — mutex-guarded process-wide arena
    static FiberStackArena arena;
    return arena;
  }

  /// Lowest usable address of a free `stackBytes` stack; its sentinel page
  /// lies directly below.
  char* acquire(std::size_t stackBytes) {
    std::lock_guard lock(mutex_);
    auto& free = free_[stackBytes];
    if (free.empty()) addSlab(stackBytes, free);
    char* stack = free.back();
    free.pop_back();
    return stack;
  }

  void release(char* stack, std::size_t stackBytes) {
    const std::size_t page = pageBytes();
    TIB_REQUIRE_MSG(
        obs::scanStackHighWater(stack - page, page) == 0,
        "fiber stack overflow: the sentinel page below a pooled stack was "
        "overwritten (raise the stack size or TIBSIM_FIBER_STACK_KB)");
    // Hand the pages back to the kernel; the next acquire pattern-fills
    // anyway, so dropping the contents costs nothing but keeps campaign
    // RSS bounded by the largest concurrently-live world.
    madvise(stack, stackBytes, MADV_DONTNEED);
    std::lock_guard lock(mutex_);
    free_[stackBytes].push_back(stack);
  }

 private:
  static void addSlab(std::size_t stackBytes, std::vector<char*>& free) {
    const std::size_t page = pageBytes();
    const std::size_t unit = stackBytes + page;  // sentinel + stack
    const std::size_t count =
        std::clamp<std::size_t>(kSlabTargetBytes / unit, 16, 512);
    const std::size_t mapBytes = page + count * unit;  // + slab guard
    void* map = mmap(nullptr, mapBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    TIB_REQUIRE_MSG(map != MAP_FAILED, "fiber stack slab mmap failed");
    TIB_REQUIRE_MSG(mprotect(map, page, PROT_NONE) == 0,
                    "fiber stack slab guard mprotect failed");
    char* base = static_cast<char*>(map) + page;
    for (std::size_t i = 0; i < count; ++i) {
      char* sentinel = base + i * unit;
      obs::patternFillStack(sentinel, page);
      free.push_back(sentinel + page);
    }
    // Slabs are never unmapped: leases reference into them for the process
    // lifetime and MADV_DONTNEED already returns idle pages.
  }

  static constexpr std::size_t kSlabTargetBytes = std::size_t{4} << 20;

  std::mutex mutex_;
  std::map<std::size_t, std::vector<char*>> free_;  ///< keyed by stack size
};

}  // namespace

// ---------------------------------------------------------------------------
// ExecutionContext — stackful user-space fiber on an owned mmap'd stack; no
// OS thread is created. A private mapping carries one PROT_NONE guard page
// below the stack (stacks grow down), so an overflow faults immediately
// instead of silently corrupting whatever the allocator placed next door —
// essential once sweeps auto-size stacks near the measured high-water mark.
// ucontext (getcontext/makecontext) builds the initial stack frame and
// performs the first entry; steady-state switches use _setjmp/_longjmp,
// which save and restore only the register file — glibc's swapcontext
// issues a rt_sigprocmask syscall on every call, and that syscall is the
// bulk of its cost (the libtask/libaco technique).
//
// Under AddressSanitizer or ThreadSanitizer every switch goes through
// swapcontext instead and is announced with that sanitizer's fiber
// annotations. The perf budget does not apply to sanitizer builds.
// ---------------------------------------------------------------------------

ExecutionContext::ExecutionContext(std::size_t stackBytes, bool pooledStack)
    : pooled_(pooledStack) {
  const std::size_t page = pageBytes();
  stackBytes_ = std::max(stackBytes != 0 ? stackBytes : defaultStackBytes(),
                         kMinFiberStackBytes);
  stackBytes_ = (stackBytes_ + page - 1) / page * page;
  if (pooled_) {
    stack_ = FiberStackArena::instance().acquire(stackBytes_);
  } else {
    // + guard page below the stack
    void* map = mmap(nullptr, stackBytes_ + page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    TIB_REQUIRE_MSG(map != MAP_FAILED, "fiber stack mmap failed");
    TIB_REQUIRE_MSG(mprotect(map, page, PROT_NONE) == 0,
                    "fiber stack guard mprotect failed");
    stack_ = static_cast<char*>(map) + page;
  }
  // Pattern-fill before makecontext arms the stack so the high-water scan
  // can tell touched bytes from untouched ones (recycled pooled stacks
  // carry the previous tenant's writes until this refill).
  obs::patternFillStack(stack_, stackBytes_);
#if TIBSIM_ASAN || TIBSIM_TSAN
  tsanFiber_ = tsanCreateFiber();
#endif
}

// Process guarantees the entry has returned before destruction, so the
// stack is quiescent here: release the lease (which checks the overflow
// sentinel) or unmap the private mapping.
ExecutionContext::~ExecutionContext() {
#if TIBSIM_ASAN || TIBSIM_TSAN
  tsanDestroyFiber(tsanFiber_);
#endif
  if (pooled_) {
    FiberStackArena::instance().release(stack_, stackBytes_);
  } else {
    const std::size_t page = pageBytes();
    munmap(stack_ - page, stackBytes_ + page);
  }
}

namespace {
// The initial frame on a fiber stack: only makecontext can build one.
// makecontext passes ints only, so `self` travels as two 32-bit halves.
void makeFiberContext(ucontext_t& ctx, char* stack, std::size_t bytes,
                      void (*entry)(unsigned, unsigned), void* self) {
  TIB_REQUIRE(getcontext(&ctx) == 0);
  ctx.uc_stack.ss_sp = stack;
  ctx.uc_stack.ss_size = bytes;
  ctx.uc_link = nullptr;  // exit is an explicit transfer in run()
  const auto bits = reinterpret_cast<std::uintptr_t>(self);
  makecontext(&ctx, reinterpret_cast<void (*)()>(entry), 2,
              static_cast<unsigned>(bits >> 32),
              static_cast<unsigned>(bits & 0xffffffffu));
}
}  // namespace

void ExecutionContext::start(Entry entry) {
  TIB_ASSERT(!armed_);
  entry_ = std::move(entry);
#if TIBSIM_ASAN || TIBSIM_TSAN
  makeFiberContext(fiberCtx_, stack_, stackBytes_, &ExecutionContext::run,
                   this);
#endif
  armed_ = true;
}

#if TIBSIM_ASAN || TIBSIM_TSAN

void ExecutionContext::switchIn() {
  TIB_ASSERT(armed_ && !done_);
  void* fakeStack = nullptr;
  asanStartSwitch(&fakeStack, stack_, stackBytes_);
  // A shard's fibers may be resumed by a different gang thread each
  // window, so the host fiber is read afresh on every switch.
  tsanHost_ = tsanCurrentFiber();
  tsanSwitchTo(tsanFiber_);
  TIB_REQUIRE(swapcontext(&hostCtx_, &fiberCtx_) == 0);
  // Back on the host stack; tell ASan and remember where the host stack
  // lives so yieldToHost() can announce the reverse switch.
  asanFinishSwitch(fakeStack, &hostStackBottom_, &hostStackSize_);
}

void ExecutionContext::yieldToHost() {
  void* fakeStack = nullptr;
  asanStartSwitch(&fakeStack, hostStackBottom_, hostStackSize_);
  tsanSwitchTo(tsanHost_);
  TIB_REQUIRE(swapcontext(&fiberCtx_, &hostCtx_) == 0);
  asanFinishSwitch(fakeStack, &hostStackBottom_, &hostStackSize_);
}

#else  // release: register-file switches after the first entry

void ExecutionContext::switchIn() {
  TIB_ASSERT(armed_ && !done_);
  if (_setjmp(hostJmp_) == 0) {
    if (!entered_) {
      // First entry: only makecontext can start a frame on the new
      // stack. The pair is needed for this one switch only, so it lives
      // here: control returns via _longjmp(hostJmp_) into this frame,
      // never through swapcontext, and nothing reads the pair again.
      entered_ = true;
      ucontext_t fiber;
      ucontext_t host;
      makeFiberContext(fiber, stack_, stackBytes_, &ExecutionContext::run,
                       this);
      TIB_REQUIRE(swapcontext(&host, &fiber) == 0);
    } else {
      _longjmp(fiberJmp_, 1);
    }
  }
}

void ExecutionContext::yieldToHost() {
  if (_setjmp(fiberJmp_) == 0) _longjmp(hostJmp_, 1);
}

#endif  // TIBSIM_ASAN || TIBSIM_TSAN

void ExecutionContext::run(unsigned selfHi, unsigned selfLo) {
  auto* self = reinterpret_cast<ExecutionContext*>(
      (static_cast<std::uintptr_t>(selfHi) << 32) |
      static_cast<std::uintptr_t>(selfLo));
#if TIBSIM_ASAN || TIBSIM_TSAN
  // First time on the fiber stack: complete the switch the host started.
  asanFinishSwitch(nullptr, &self->hostStackBottom_, &self->hostStackSize_);
#endif
  self->entry_();
  self->done_ = true;
#if TIBSIM_ASAN || TIBSIM_TSAN
  // Final exit: a nullptr fake-stack save tells ASan this fiber is dying.
  asanStartSwitch(nullptr, self->hostStackBottom_, self->hostStackSize_);
  tsanSwitchTo(self->tsanHost_);
  swapcontext(&self->fiberCtx_, &self->hostCtx_);
#else
  _longjmp(self->hostJmp_, 1);
#endif
  TIB_ASSERT(false && "resumed a finished fiber");
}

std::size_t ExecutionContext::stackHighWaterBytes() const {
  return obs::scanStackHighWater(stack_, stackBytes_);
}

std::size_t ExecutionContext::defaultStackBytes() {
  static const std::size_t bytes = [] {
    if (const char* env = std::getenv("TIBSIM_FIBER_STACK_KB")) {
      const long kb = std::strtol(env, nullptr, 10);
      if (kb > 0) return static_cast<std::size_t>(kb) * 1024;
    }
    return static_cast<std::size_t>(256) * 1024;
  }();
  return bytes;
}

std::size_t pageBytes() {
  static const std::size_t page = [] {
    const long v = sysconf(_SC_PAGESIZE);
    return v > 0 ? static_cast<std::size_t>(v) : std::size_t{4096};
  }();
  return page;
}

std::size_t recommendedStackBytes(std::size_t highWaterBytes) {
  if (highWaterBytes == 0) return 0;  // no telemetry: keep the default
  const std::size_t page = pageBytes();
  const std::size_t doubled = 2 * highWaterBytes;
  const std::size_t rounded = (doubled + page - 1) / page * page;
  return std::max(rounded, kMinFiberStackBytes);
}

}  // namespace tibsim::sim
