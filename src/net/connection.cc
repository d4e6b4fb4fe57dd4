#include "net/connection.h"

#include <algorithm>
#include <utility>

#include "util/string_util.h"

namespace hypermine::net {

Connection::Connection(Options options) : options_(options) {}

void Connection::Ingest(std::string_view data) {
  AssertOnReactor();
  if (corrupt() || peer_closed_) return;  // post-violation bytes are noise
  buffer_.append(data.data(), data.size());
  Advance();
}

void Connection::OnPeerClosed() {
  AssertOnReactor();
  if (peer_closed_ || corrupt()) return;
  peer_closed_ = true;
  // Unparsed buffered bytes or a half-received frame at EOF mean the peer
  // died mid-frame — the same kCorrupted the blocking server reported
  // from ReadFull.
  if (mid_frame()) {
    error_ = Status::Corrupted("connection closed mid-frame");
  }
}

void Connection::Advance() {
  const auto now = std::chrono::steady_clock::now();
  for (;;) {
    const size_t available = buffer_.size() - buffer_offset_;
    if (state_ == ReadState::kHeader) {
      if (available < kFrameHeaderBytes) break;
      Status decoded = DecodeFrameHeader(
          std::string_view(buffer_.data() + buffer_offset_,
                           kFrameHeaderBytes),
          &header_);
      if (!decoded.ok()) {
        error_ = std::move(decoded);
        break;
      }
      buffer_offset_ += kFrameHeaderBytes;
      if (header_.body_len > options_.max_frame_bytes) {
        // Well-framed but over the server's limit: answer it rejected (in
        // arrival order — parsing of later frames waits for the skip) and
        // discard the body as it streams in, never materializing it.
        PendingFrame frame;
        frame.header = header_;
        frame.pre = Status::InvalidArgument(
            StrFormat("frame body of %u bytes exceeds the limit (%u)",
                      header_.body_len, options_.max_frame_bytes));
        frame.arrival = now;
        pending_.push_back(std::move(frame));
        ++frames_parsed_;
        skip_left_ = header_.body_len;
        state_ = skip_left_ > 0 ? ReadState::kSkipBody : ReadState::kHeader;
        continue;
      }
      state_ = ReadState::kBody;
      continue;
    }
    if (state_ == ReadState::kSkipBody) {
      const size_t drop = std::min<size_t>(available, skip_left_);
      buffer_offset_ += drop;
      skip_left_ -= static_cast<uint32_t>(drop);
      if (skip_left_ > 0) break;
      state_ = ReadState::kHeader;
      continue;
    }
    // kBody.
    if (available < header_.body_len) break;
    PendingFrame frame;
    frame.header = header_;
    frame.body.assign(buffer_.data() + buffer_offset_, header_.body_len);
    buffer_offset_ += header_.body_len;
    frame.arrival = now;
    pending_.push_back(std::move(frame));
    ++frames_parsed_;
    state_ = ReadState::kHeader;
  }
  // Compact once the consumed prefix dominates, so a long-lived
  // connection does not grow its buffer without bound.
  if (buffer_offset_ > 4096 && buffer_offset_ * 2 >= buffer_.size()) {
    buffer_.erase(0, buffer_offset_);
    buffer_offset_ = 0;
  }
}

std::vector<PendingFrame> Connection::TakeBatch(size_t max_batch) {
  AssertOnReactor();
  const size_t n = std::min(max_batch, pending_.size());
  std::vector<PendingFrame> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  return batch;
}

bool Connection::wants_read() const {
  return !corrupt() && !peer_closed_ &&
         (options_.max_pending_frames == 0 ||
          pending_.size() < options_.max_pending_frames) &&
         (options_.write_high_water == 0 ||
          write_queued() < options_.write_high_water);
}

}  // namespace hypermine::net
