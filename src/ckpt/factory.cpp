#include "ckpt/factory.hpp"

#include <stdexcept>

#include "ckpt/blcr_checkpoint.hpp"
#include "ckpt/paired_checkpoint.hpp"
#include "ckpt/self_checkpoint.hpp"

namespace skt::ckpt {

std::unique_ptr<CheckpointProtocol> make_protocol(Strategy strategy,
                                                  const FactoryParams& params) {
  switch (strategy) {
    case Strategy::kSelf:
      return std::make_unique<SelfCheckpoint>(params);
    case Strategy::kSingle:
    case Strategy::kDouble:
      return std::make_unique<PairedCheckpoint>(params, strategy);
    case Strategy::kBlcr:
      return std::make_unique<BlcrCheckpoint>(params);
    case Strategy::kNone:
      break;
  }
  throw std::invalid_argument("make_protocol: no protocol for this strategy");
}

}  // namespace skt::ckpt
