#ifndef HYPERMINE_NET_WRITE_QUEUE_H_
#define HYPERMINE_NET_WRITE_QUEUE_H_

#include <cstddef>
#include <deque>
#include <string>
#include <string_view>

#include "net/event_loop.h"

namespace hypermine::net {

/// Response bytes a connection has queued and its socket has not yet
/// taken. Both protocol state machines, net::Connection and
/// net::HttpConnection, are write queues, so the reactor drains either
/// one the same way: hand write_head() to the socket, pass the count it
/// took to ConsumeWrite() (short writes included).
///
/// Thread-safety: none. After BindLoop, debug builds verify on every
/// mutating call that it runs on the loop's bound thread (release builds
/// pay nothing); an unbound queue (a unit test driving a state machine
/// directly) skips the check.
class WriteQueue {
 public:
  /// Ties this queue, and the state machine built on it, to its reactor's
  /// loop for life. `loop` is not owned and must outlive the queue.
  void BindLoop(const EventLoop* loop) { loop_ = loop; }

  /// Appends response bytes.
  void QueueWrite(std::string bytes);

  /// Bytes not yet consumed by the socket.
  size_t write_queued() const { return write_queued_; }
  bool wants_write() const { return write_queued_ > 0; }

  /// The longest contiguous span currently writable (the head chunk of
  /// the queue). Empty iff !wants_write().
  std::string_view write_head() const;

  /// Marks `n` bytes of write_head() as written. n must not exceed
  /// write_head().
  void ConsumeWrite(size_t n);

 protected:
  /// Debug-only reactor-affinity check; no-op when unbound.
  void AssertOnReactor() const {
    if (loop_ != nullptr) loop_->AssertOnLoopThread();
  }

 private:
  const EventLoop* loop_ = nullptr;
  std::deque<std::string> chunks_;
  size_t head_offset_ = 0;   // consumed prefix of chunks_.front()
  size_t write_queued_ = 0;  // total unconsumed bytes across chunks_
};

}  // namespace hypermine::net

#endif  // HYPERMINE_NET_WRITE_QUEUE_H_
