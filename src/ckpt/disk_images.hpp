// One rank's full checkpoint images in the durable tier (storage::Vault):
// BLCR's every-commit images (Table 3) and level 2's periodic flush of the
// committed image (Sections 2.1 and 7) keep their generations here.
//
// Generation e lives under "<stem>.img.e<e>". A manifest "<stem>.manifest"
// = {newest, previous} is written after the image, so a write torn before
// the manifest leaves it naming the last two complete generations. Two
// generations are retained: a write drops the image of the generation
// before the previous one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "mpi/comm.hpp"

namespace skt::storage {
class Vault;
}

namespace skt::ckpt {

class DiskImages {
 public:
  /// `stem` names this rank's keys, e.g. "<prefix>.r<rank>.L2".
  DiskImages(storage::Vault& vault, std::string stem);

  /// The newest generation whose image exists (0 = none): the manifest is
  /// trusted only as far as its images exist.
  [[nodiscard]] std::uint64_t newest() const;

  /// Store `image` as generation `epoch`, drop the previous generation's
  /// image and write {epoch, old newest}. Returns the modeled device
  /// seconds of the write.
  double write(std::uint64_t epoch, std::span<const std::byte> image);

  /// Copy generation `epoch` out: its first data.size() bytes into `data`,
  /// the rest into `user`. Returns the modeled device seconds of the read.
  /// Throws Unrecoverable when the image is missing or has another size.
  double read(std::uint64_t epoch, std::span<std::byte> data, std::span<std::byte> user) const;

  /// Collective over `world`: the newest generation every rank holds (the
  /// Min of newest()). A rank whose manifest names a newer generation
  /// drops that image and names the agreed one newest, so no later write
  /// drops a generation another rank still needs.
  std::uint64_t agree(mpi::Comm& world);

 private:
  struct Manifest {
    std::uint64_t newest = 0;
    std::uint64_t previous = 0;
  };

  [[nodiscard]] std::string image_key(std::uint64_t epoch) const;
  [[nodiscard]] Manifest load_manifest() const;
  void store_manifest(const Manifest& manifest);

  storage::Vault& vault_;
  std::string stem_;
};

}  // namespace skt::ckpt
