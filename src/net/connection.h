#ifndef HYPERMINE_NET_CONNECTION_H_
#define HYPERMINE_NET_CONNECTION_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.h"
#include "net/write_queue.h"
#include "util/status.h"

namespace hypermine::net {

/// One frame extracted from a connection's byte stream, waiting for a
/// batch slot. `pre` non-OK means admission already rejected it at the
/// framing layer (an oversized body, which was skipped, never
/// materialized) — the engine never sees it, but it still gets an in-band
/// error response in arrival order.
struct PendingFrame {
  FrameHeader header;
  std::string body;
  Status pre;
  /// When the frame finished arriving (stamped by Advance). The server's
  /// load shedder compares this against its queue-wait budget at batch
  /// build time, so each query's own wait — not its batch's — decides.
  std::chrono::steady_clock::time_point arrival;
};

/// The per-socket protocol state machine of the event-loop server: bytes
/// in, decoded frames out, and response bytes queued on the WriteQueue it
/// is. It owns NO descriptor and never blocks — the reactor (or a test)
/// feeds it whatever the socket produced and drains whatever it wants
/// written, so every partial-read / short-write / mid-frame-close path is
/// exercisable entirely in memory (tests/net/connection_test.cc does
/// exactly that).
///
/// Framing behavior matches docs/protocol.md §1: a header announcing a
/// body above the protocol cap, bad magic, or nonzero reserved bits is
/// connection-fatal (corrupt()); a well-framed body above the server's
/// configured `max_frame_bytes` is skipped byte-for-byte and surfaces as
/// a PendingFrame whose `pre` is kInvalidArgument, keeping the stream
/// framed and the connection usable.
///
/// Thread-safety: none. One Connection belongs to one reactor thread;
/// after BindLoop, debug builds verify that claim on every mutating call
/// (release builds pay nothing).
class Connection : public WriteQueue {
 public:
  struct Options {
    /// Per-frame admission cap (the server's max_query_bytes). Bodies
    /// above it but within the protocol cap are skipped, not fatal.
    uint32_t max_frame_bytes = kMaxBodyBytes;
    /// Decoded-but-unclaimed frames before wants_read() turns off —
    /// bounds memory when a client pipelines faster than the engine
    /// drains. 0 = unbounded.
    size_t max_pending_frames = 4096;
    /// Queued response bytes before wants_read() turns off: a client
    /// that stops reading its responses stops being read from, so the
    /// write queue (not the kernel) is the only buffer that grows.
    /// 0 = unbounded (matching the server options' 0-disables idiom).
    size_t write_high_water = 1u << 20;
  };

  Connection() : Connection(Options{}) {}
  explicit Connection(Options options);

  // --- read side -------------------------------------------------------

  /// Consumes bytes the reactor read off the socket, advancing the
  /// framing state machine. Complete frames accumulate for TakeBatch();
  /// a framing violation flips corrupt() (bytes after it are ignored).
  void Ingest(std::string_view data);

  /// The peer closed its write side. A close mid-frame is a framing
  /// violation (kCorrupted, matching the blocking server's "connection
  /// closed mid-read"); between frames it is a clean end of stream.
  void OnPeerClosed();

  /// The stream is beyond recovery; `error()` says why. Already-decoded
  /// frames are still served (TakeBatch keeps returning them) — the
  /// reactor drops the connection once they are answered and flushed.
  bool corrupt() const { return !error_.ok(); }
  const Status& error() const { return error_; }
  /// True after OnPeerClosed() with clean framing.
  bool peer_closed() const { return peer_closed_; }

  /// True while a frame is partially received (header split across reads,
  /// or a body/skip in progress). The server's stall timer uses this: a
  /// connection parked mid-frame past the stall budget is a slow-loris
  /// peer, closed even though it is not idle by the reap timer's measure.
  bool mid_frame() const {
    return state_ != ReadState::kHeader || buffer_offset_ != buffer_.size();
  }

  /// Frames decoded and not yet taken.
  size_t pending_frames() const { return pending_.size(); }

  /// Lifetime count of frames fully parsed (pre-rejected ones included).
  /// The stall timer keys on this: a connection whose counter moves is
  /// making progress even if it is always mid-way through the NEXT frame.
  uint64_t frames_parsed() const { return frames_parsed_; }

  /// Moves up to `max_batch` frames out, in arrival order.
  std::vector<PendingFrame> TakeBatch(size_t max_batch);

  /// Whether the reactor should keep read interest: the stream is intact
  /// and neither the pending-frame bound nor the write high-water mark
  /// says "stop accepting work".
  bool wants_read() const;

 private:
  enum class ReadState { kHeader, kBody, kSkipBody };

  /// Parses as much of buffer_ as possible into pending_.
  void Advance();

  Options options_;
  Status error_;
  bool peer_closed_ = false;

  ReadState state_ = ReadState::kHeader;
  FrameHeader header_;      // valid in kBody / kSkipBody
  uint32_t skip_left_ = 0;  // kSkipBody: body bytes still to discard
  std::string buffer_;      // unparsed input bytes
  size_t buffer_offset_ = 0;

  std::deque<PendingFrame> pending_;
  uint64_t frames_parsed_ = 0;
};

}  // namespace hypermine::net

#endif  // HYPERMINE_NET_CONNECTION_H_
