#include "src/trace/span.h"

#include <algorithm>
#include <chrono>
#include <mutex>

namespace hyperalloc::trace {

const char* Name(Layer layer) {
  switch (layer) {
    case Layer::kRequest:
      return "request";
    case Layer::kMonitor:
      return "monitor";
    case Layer::kBackend:
      return "backend";
    case Layer::kGuest:
      return "guest";
    case Layer::kLLFree:
      return "llfree";
    case Layer::kEpt:
      return "ept";
    case Layer::kIommu:
      return "iommu";
    case Layer::kTelemetry:
      return "telemetry";
  }
  return "?";
}

uint64_t WallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {
constexpr size_t kDefaultSpanRingCapacity = 1 << 16;
}  // namespace

using SpanRing = RingCore<SpanRecord, std::atomic>;

struct SpanTracer::ThreadBuffer {
  SpanRing ring{kDefaultSpanRingCapacity};
  SpanTracer* owner = nullptr;
};

struct SpanTracer::Impl {
  mutable std::mutex mu;
  size_t capacity = kDefaultSpanRingCapacity;
  std::vector<ThreadBuffer*> live;
  std::vector<SpanRecord> retired;
  uint64_t retired_dropped = 0;
};

// RAII registration of the calling thread's span ring; the destructor
// moves any remaining spans into the retired list so traces survive
// thread exit (the multi-VM harness joins its workers before draining).
struct SpanThreadHandle {
  SpanTracer::ThreadBuffer buffer;

  ~SpanThreadHandle() {
    if (buffer.owner != nullptr) {
      buffer.owner->Retire(&buffer);
    }
  }
};

SpanTracer& SpanTracer::Global() {
  // Leaked singleton: must outlive every thread's SpanThreadHandle.
  static SpanTracer* global = new SpanTracer;
  return *global;
}

SpanTracer::Impl* SpanTracer::impl() {
  static Impl* impl = new Impl;
  return impl;
}

const SpanTracer::Impl* SpanTracer::impl() const {
  return const_cast<SpanTracer*>(this)->impl();
}

SpanTracer::ThreadBuffer& SpanTracer::LocalBuffer() {
  thread_local SpanThreadHandle handle;
  if (handle.buffer.owner == nullptr) {
    Register(&handle.buffer);
  }
  return handle.buffer;
}

void SpanTracer::Register(ThreadBuffer* buffer) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  buffer->ring.Rebuild(i->capacity);
  buffer->owner = this;
  i->live.push_back(buffer);
}

void SpanTracer::Retire(ThreadBuffer* buffer) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  buffer->ring.Drain(&i->retired);
  i->retired_dropped += buffer->ring.dropped();
  std::erase(i->live, buffer);
  buffer->owner = nullptr;
}

void SpanTracer::Emit(SpanRecord record) {
  record.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  LocalBuffer().ring.Push(record);
}

std::vector<SpanRecord> SpanTracer::Drain() {
  Impl* i = impl();
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(i->mu);
    out.swap(i->retired);
    for (ThreadBuffer* buffer : i->live) {
      buffer->ring.Drain(&out);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.begin_vns != b.begin_vns) {
                return a.begin_vns < b.begin_vns;
              }
              return a.seq < b.seq;
            });
  return out;
}

uint64_t SpanTracer::dropped_spans() const {
  const Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  uint64_t dropped = i->retired_dropped;
  for (const ThreadBuffer* buffer : i->live) {
    dropped += buffer->ring.dropped();
  }
  return dropped;
}

void SpanTracer::SetCapacity(size_t spans_per_thread) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  i->capacity = spans_per_thread;
  for (ThreadBuffer* buffer : i->live) {
    buffer->ring.Rebuild(spans_per_thread);
  }
}

void SpanTracer::ResetForTest() {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  i->retired.clear();
  i->retired_dropped = 0;
  for (ThreadBuffer* buffer : i->live) {
    buffer->ring.Rebuild(i->capacity);
  }
  seq_.store(0, std::memory_order_relaxed);
  next_trace_id_.store(1, std::memory_order_relaxed);
  next_span_id_.store(1, std::memory_order_relaxed);
}

#if HYPERALLOC_TRACE

SpanContext& ThreadSpanContext() {
  thread_local SpanContext context;
  return context;
}

Span*& Span::Innermost() {
  thread_local Span* innermost = nullptr;
  return innermost;
}

#endif  // HYPERALLOC_TRACE

}  // namespace hyperalloc::trace
