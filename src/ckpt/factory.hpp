// Strategy factory: one place that maps a Strategy enum plus common
// parameters onto a concrete CheckpointProtocol.
//
// SPI note: make_protocol is the service-provider entry point. Application
// code should build a ckpt::Session (session.hpp) instead, which calls
// make_protocol internally.
#pragma once

#include <memory>
#include <string>

#include "ckpt/protocol.hpp"
#include "encoding/codec.hpp"

namespace skt::storage {
class Vault;
}

namespace skt::ckpt {

/// The one parameter set of every strategy. A strategy ignores what it
/// does not use.
struct FactoryParams {
  std::string key_prefix = "skt";
  std::size_t data_bytes = 0;
  std::size_t user_bytes = 64;
  enc::CodecKind codec = enc::CodecKind::kXor;
  /// Self and double: 1 = single erasure (paper default); m >= 2 = RS(k, m)
  /// wide-stripe groups surviving m concurrent losses per group. Single
  /// stays single-parity.
  int parity_degree = 1;
  /// BLCR's disk and level 2's (required there). The vault's own device
  /// prices every image it writes or reads.
  storage::Vault* vault = nullptr;
  /// Self, single and double: > 0 adds level 2, writing the committed
  /// image to the vault every N commits and falling back to the newest
  /// disk generation when level 1 cannot restore (a group lost more
  /// members than its code absorbs). 0 = in-memory only.
  int level2_flush_every = 0;
  /// Allocate the staging buffer for stage()/commit_staged(). Changes the
  /// persistent-store layout of self-checkpoint (its SHM staging segment),
  /// so a run cannot restart with a different setting than it committed
  /// with — the header codec field records it. The other strategies stage
  /// into heap memory their recovery never reads.
  bool async_staging = false;
  /// PersistentStore owner tag for every segment the protocol creates —
  /// the tenant namespace under a StoreService ("ns/<tenant>/"). Empty for
  /// single-tenant sessions. A key registered to one owner is refused to
  /// any other, so cross-tenant collisions fail loudly at open().
  std::string owner;
};

/// Strategy::kNone is rejected (there is no protocol object for it).
[[nodiscard]] std::unique_ptr<CheckpointProtocol> make_protocol(Strategy strategy,
                                                                const FactoryParams& params);

}  // namespace skt::ckpt
