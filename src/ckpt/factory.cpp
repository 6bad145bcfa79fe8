#include "ckpt/factory.hpp"

#include <stdexcept>

#include "ckpt/blcr_checkpoint.hpp"
#include "ckpt/double_checkpoint.hpp"
#include "ckpt/self_checkpoint.hpp"
#include "ckpt/single_checkpoint.hpp"

namespace skt::ckpt {

std::unique_ptr<CheckpointProtocol> make_protocol(Strategy strategy,
                                                  const FactoryParams& params) {
  switch (strategy) {
    case Strategy::kSelf:
      return std::make_unique<SelfCheckpoint>(
          SelfCheckpoint::Params{params.key_prefix, params.data_bytes, params.user_bytes,
                                 params.codec, params.parity_degree, params.async_staging,
                                 params.owner});
    case Strategy::kSingle:
      return std::make_unique<SingleCheckpoint>(
          SingleCheckpoint::Params{params.key_prefix, params.data_bytes, params.user_bytes,
                                   params.codec, params.async_staging, params.owner});
    case Strategy::kDouble:
      return std::make_unique<DoubleCheckpoint>(
          DoubleCheckpoint::Params{params.key_prefix, params.data_bytes, params.user_bytes,
                                   params.codec, params.parity_degree,
                                   params.async_staging, params.owner});
    case Strategy::kBlcr:
      return std::make_unique<BlcrCheckpoint>(
          BlcrCheckpoint::Params{params.key_prefix, params.data_bytes, params.user_bytes,
                                 params.vault, params.device, params.async_staging});
    case Strategy::kNone:
      break;
  }
  throw std::invalid_argument("make_protocol: no protocol for this strategy");
}

}  // namespace skt::ckpt
