// Framed, epoch-stamped message channel over a connected socket fd.
//
// Wire format of one frame (all little-endian):
//
//   u32 payload_len   bounded by kMaxFrameLen — a corrupt length is rejected
//                     before any allocation
//   u8  kind          FrameKind discriminator
//   u8  flags         bit 0 (kFlagMore): continuation — the logical message
//                     continues in the next frame (chunking by the
//                     sender's msg_budget)
//   u64 epoch         superstep counter; both sides assert agreement, so a
//                     divergent rank is detected at the next exchange instead
//                     of corrupting state silently
//   u8[payload_len]   payload bytes (codec-encoded)
//
// Channel::send_message splits a payload into budget-sized frames; recv_message
// reassembles them.  EOF mid-protocol (a dead peer) and every socket error
// throw BackendError — the process backend's hub turns that into
// SolveStatus::kBackendFailure, never a hang.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/codec.hpp"

namespace qplec::net {

/// Frame discriminators.  Hub->rank kinds end in Release (the hub's half of
/// each collective); rank->hub kinds carry contributions.
enum class FrameKind : std::uint8_t {
  kHello = 1,            ///< rank -> hub: rank is alive, protocol handshake
  kInstance = 2,         ///< hub -> rank: serialized instance + config + shard
  kExchange = 3,         ///< rank -> hub: owned boundary updates this superstep
  kExchangeRelease = 4,  ///< hub -> rank: combined updates from all ranks
  kReduceMax = 5,        ///< rank -> hub: local max contribution
  kReduceRelease = 6,    ///< hub -> rank: global max
  kBarrier = 7,          ///< rank -> hub: barrier arrival
  kBarrierRelease = 8,   ///< hub -> rank: barrier release
  kResult = 9,           ///< rank 0 -> hub: full serialized SolveResult
  kResultHash = 10,      ///< rank >0 -> hub: fingerprint of the local result
  kError = 11,           ///< rank -> hub: worker-side exception text
  kShutdown = 12,        ///< hub -> rank: orderly exit
};

const char* frame_kind_name(FrameKind kind);

inline constexpr std::uint8_t kFlagMore = 0x01;

/// Hard ceiling on one frame's payload; a length field above this is corrupt
/// (or a protocol desync) and is rejected without allocating.
inline constexpr std::uint32_t kMaxFrameLen = 1u << 28;  // 256 MiB

/// Frame header + payload as parsed off the wire.
struct Frame {
  FrameKind kind;
  std::uint8_t flags = 0;
  std::uint64_t epoch = 0;
  std::vector<std::uint8_t> payload;
};

/// One end of a socketpair, owning the fd.  Blocking I/O; every failure mode
/// (EOF, EPIPE, corrupt length) throws BackendError.
class Channel {
 public:
  Channel() = default;
  explicit Channel(int fd, std::string peer_name);
  ~Channel();

  Channel(Channel&& other) noexcept;
  Channel& operator=(Channel&& other) noexcept;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  const std::string& peer_name() const { return peer_name_; }
  void close();

  /// Sends one logical message, chunked into frames of at most msg_budget
  /// payload bytes each (budget <= 0 means unchunked); all but the last
  /// carry kFlagMore.
  void send_message(FrameKind kind, std::uint64_t epoch, const std::vector<std::uint8_t>& payload,
                    std::int64_t msg_budget = 0);

  /// Receives one logical message, reassembling kFlagMore continuations.
  /// Every reassembled frame must agree on kind and epoch.
  Frame recv_message();

  /// Receives one raw frame (no reassembly) — the hub's event loop uses this
  /// so a single poll wakeup consumes exactly one frame.
  Frame recv_frame();

 private:
  void send_frame(FrameKind kind, std::uint8_t flags, std::uint64_t epoch,
                  const std::uint8_t* data, std::size_t n);
  void read_exact(std::uint8_t* buf, std::size_t n);
  void write_exact(const std::uint8_t* buf, std::size_t n);

  int fd_ = -1;
  std::string peer_name_;
};

}  // namespace qplec::net
