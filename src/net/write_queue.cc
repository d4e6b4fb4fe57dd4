#include "net/write_queue.h"

#include <utility>

#include "util/logging.h"

namespace hypermine::net {

void WriteQueue::QueueWrite(std::string bytes) {
  AssertOnReactor();
  if (bytes.empty()) return;
  write_queued_ += bytes.size();
  chunks_.push_back(std::move(bytes));
}

std::string_view WriteQueue::write_head() const {
  if (chunks_.empty()) return {};
  return std::string_view(chunks_.front()).substr(head_offset_);
}

void WriteQueue::ConsumeWrite(size_t n) {
  AssertOnReactor();
  HM_CHECK_LE(n, write_head().size());
  if (n == 0) return;
  head_offset_ += n;
  write_queued_ -= n;
  if (head_offset_ == chunks_.front().size()) {
    chunks_.pop_front();
    head_offset_ = 0;
  }
}

}  // namespace hypermine::net
