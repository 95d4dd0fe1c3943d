#include "src/kernel/net/transport.h"

#include <cstring>

namespace kern {
namespace {

std::vector<uint8_t> BuildFrame(const TransportHeader& hdr, const uint8_t* payload) {
  std::vector<uint8_t> frame(sizeof(TransportHeader) + hdr.len);
  std::memcpy(frame.data(), &hdr, sizeof(hdr));
  if (hdr.len > 0 && payload != nullptr) {
    std::memcpy(frame.data() + sizeof(hdr), payload, hdr.len);
  }
  return frame;
}

bool ParseFrame(const uint8_t* frame, size_t len, TransportHeader* hdr, const uint8_t** payload) {
  if (len < sizeof(TransportHeader)) {
    return false;
  }
  std::memcpy(hdr, frame, sizeof(TransportHeader));
  if (len < sizeof(TransportHeader) + hdr->len) {
    return false;
  }
  *payload = frame + sizeof(TransportHeader);
  return true;
}

}  // namespace

// --- UDP ----------------------------------------------------------------------

void UdpEndpoint::Send(const uint8_t* data, size_t len) {
  TransportHeader hdr;
  hdr.len = static_cast<uint16_t>(len);
  std::vector<uint8_t> frame = BuildFrame(hdr, data);
  ++sent_;
  if (tx_) {
    tx_(frame.data(), frame.size());
  }
}

void UdpEndpoint::OnFrame(const uint8_t* frame, size_t len) {
  TransportHeader hdr;
  const uint8_t* payload = nullptr;
  if (!ParseFrame(frame, len, &hdr, &payload)) {
    return;
  }
  inbox_.emplace_back(payload, payload + hdr.len);
  ++received_;
}

// --- TCP ----------------------------------------------------------------------

void TcpEndpoint::Send(const uint8_t* data, size_t len) {
  send_buffer_.insert(send_buffer_.end(), data, data + len);
  PumpOutput();
}

void TcpEndpoint::EmitSegment(uint32_t seq, const uint8_t* data, uint16_t len, bool ack_only) {
  TransportHeader hdr;
  hdr.seq = seq;
  hdr.ack = rcv_nxt_;
  hdr.len = len;
  hdr.flags = ack_only ? kTransportFlagAck : 0;
  std::vector<uint8_t> frame = BuildFrame(hdr, data);
  if (ack_only) {
    ++acks_sent;
  } else {
    ++segments_sent;
  }
  if (tx_) {
    tx_(frame.data(), frame.size());
  }
}

void TcpEndpoint::SendAck() { EmitSegment(snd_nxt_, nullptr, 0, /*ack_only=*/true); }

void TcpEndpoint::PumpOutput() {
  // The link is synchronous: emitting a segment can deliver the peer's ACK
  // back into OnFrame *before* EmitSegment returns, which both advances
  // snd_una_ and re-enters PumpOutput. Advance snd_nxt_ before emitting and
  // refuse nested pumps so each byte is sent exactly once per window pass.
  if (pumping_) {
    return;
  }
  pumping_ = true;
  while (snd_nxt_ - snd_una_ < window_ * kTransportMss) {
    uint32_t unsent_offset = snd_nxt_ - snd_una_;
    if (unsent_offset >= send_buffer_.size()) {
      break;
    }
    uint16_t len = static_cast<uint16_t>(
        std::min<size_t>(kTransportMss, send_buffer_.size() - unsent_offset));
    uint32_t seq = snd_nxt_;
    // Copy out first: the recursive ACK may shrink send_buffer_ underneath.
    std::vector<uint8_t> payload(send_buffer_.begin() + unsent_offset,
                                 send_buffer_.begin() + unsent_offset + len);
    snd_nxt_ += len;
    EmitSegment(seq, payload.data(), len, false);
  }
  pumping_ = false;
}

void TcpEndpoint::OnFrame(const uint8_t* frame, size_t len) {
  TransportHeader hdr;
  const uint8_t* payload = nullptr;
  if (!ParseFrame(frame, len, &hdr, &payload)) {
    return;
  }

  // ACK processing (every frame carries a cumulative ACK). After a
  // go-back-N rewind snd_nxt_ can sit below data the peer already holds, so
  // accept any cumulative ACK covering bytes this endpoint has ever sent —
  // bounded by the send buffer, whose base is snd_una_.
  if (hdr.ack > snd_una_ && hdr.ack - snd_una_ <= send_buffer_.size()) {
    uint32_t acked = hdr.ack - snd_una_;
    send_buffer_.erase(send_buffer_.begin(), send_buffer_.begin() + acked);
    snd_una_ = hdr.ack;
    if (snd_nxt_ < snd_una_) {
      snd_nxt_ = snd_una_;
    }
    ticks_since_progress_ = 0;
    PumpOutput();
  }

  // Data processing.
  if (hdr.len > 0) {
    if (hdr.seq == rcv_nxt_) {
      received_.insert(received_.end(), payload, payload + hdr.len);
      rcv_nxt_ += hdr.len;
      // Drain any buffered continuation.
      auto it = reorder_.begin();
      while (it != reorder_.end() && it->first <= rcv_nxt_) {
        if (it->first + it->second.size() > rcv_nxt_) {
          size_t skip = rcv_nxt_ - it->first;
          received_.insert(received_.end(), it->second.begin() + static_cast<long>(skip),
                           it->second.end());
          rcv_nxt_ = it->first + static_cast<uint32_t>(it->second.size());
        }
        it = reorder_.erase(it);
      }
    } else if (hdr.seq > rcv_nxt_) {
      ++out_of_order;
      reorder_.emplace(hdr.seq, std::vector<uint8_t>(payload, payload + hdr.len));
    }  // duplicates below rcv_nxt_ are dropped
    SendAck();
  }
}

void TcpEndpoint::Tick() {
  if (snd_una_ == snd_nxt_) {
    return;  // nothing in flight
  }
  if (++ticks_since_progress_ < rto_ticks_) {
    return;
  }
  // Go-back-N: rewind and resend the window.
  ++retransmits;
  ticks_since_progress_ = 0;
  snd_nxt_ = snd_una_;
  PumpOutput();
}

}  // namespace kern
