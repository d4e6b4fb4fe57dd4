// In-memory span recording for the traced run.
#include <algorithm>
#include <chrono>

#include "perfbench.h"

namespace hypermine::perfbench {

Tracer::Buffer* Tracer::NewBuffer() {
  MutexLock lock(mutex_);
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->reserve(1 << 16);
  return buffers_.back().get();
}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  MutexLock lock(mutex_);
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

ScopedSpan::ScopedSpan(Tracer* tracer, Tracer::Buffer* buffer,
                       const char* name, uint64_t parent, uint64_t request)
    : buffer_(buffer) {
  if (buffer_ == nullptr) return;
  span_.id = tracer->NextId();
  span_.parent = parent;
  span_.request = request;
  span_.name = name;
  span_.start_ns = Tracer::NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  span_.end_ns = Tracer::NowNs();
  buffer_->push_back(span_);
}

}  // namespace hypermine::perfbench
