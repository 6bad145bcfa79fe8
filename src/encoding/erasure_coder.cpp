#include "encoding/erasure_coder.hpp"

#include <stdexcept>

#include "encoding/group_codec.hpp"
#include "encoding/rs_group.hpp"

namespace skt::enc {

std::unique_ptr<ErasureCoder> make_coder(int parity_degree, CodecKind kind,
                                         std::size_t data_bytes, int group_size) {
  if (parity_degree == 1) return std::make_unique<GroupCodec>(kind, data_bytes, group_size);
  if (parity_degree >= 2) {
    return std::make_unique<RSGroupCodec>(data_bytes, group_size, parity_degree);
  }
  throw std::invalid_argument("make_coder: parity_degree must be >= 1");
}

}  // namespace skt::enc
