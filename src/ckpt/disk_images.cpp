#include "ckpt/disk_images.hpp"

#include <cstring>

#include "ckpt/protocol.hpp"
#include "storage/vault.hpp"

namespace skt::ckpt {

DiskImages::DiskImages(storage::Vault& vault, std::string stem)
    : vault_(vault), stem_(std::move(stem)) {}

std::string DiskImages::image_key(std::uint64_t epoch) const {
  return stem_ + ".img.e" + std::to_string(epoch);
}

DiskImages::Manifest DiskImages::load_manifest() const {
  const auto blob = vault_.get(stem_ + ".manifest");
  Manifest manifest;
  if (blob.has_value() && blob->size() == sizeof(Manifest)) {
    std::memcpy(&manifest, blob->data(), sizeof(Manifest));
  }
  return manifest;
}

void DiskImages::store_manifest(const Manifest& manifest) {
  vault_.put(stem_ + ".manifest", std::as_bytes(std::span(&manifest, 1)));
}

std::uint64_t DiskImages::newest() const {
  const Manifest manifest = load_manifest();
  if (manifest.newest >= 1 && vault_.exists(image_key(manifest.newest))) return manifest.newest;
  if (manifest.previous >= 1 && vault_.exists(image_key(manifest.previous))) {
    return manifest.previous;
  }
  return 0;
}

double DiskImages::write(std::uint64_t epoch, std::span<const std::byte> image) {
  vault_.put(image_key(epoch), image);
  Manifest manifest = load_manifest();
  if (manifest.previous >= 1) vault_.remove(image_key(manifest.previous));
  manifest.previous = manifest.newest;
  manifest.newest = epoch;
  store_manifest(manifest);
  return vault_.write_seconds(image.size());
}

double DiskImages::read(std::uint64_t epoch, std::span<std::byte> data,
                        std::span<std::byte> user) const {
  const auto image = vault_.get(image_key(epoch));
  if (!image.has_value() || image->size() != data.size() + user.size()) {
    throw Unrecoverable(stem_ + ": disk image corrupt for epoch " + std::to_string(epoch));
  }
  std::memcpy(data.data(), image->data(), data.size());
  std::memcpy(user.data(), image->data() + data.size(), user.size());
  return vault_.read_seconds(image->size());
}

std::uint64_t DiskImages::agree(mpi::Comm& world) {
  const std::uint64_t agreed = world.allreduce_value<std::uint64_t>(newest(), mpi::Min{});
  if (const Manifest manifest = load_manifest(); manifest.newest > agreed) {
    vault_.remove(image_key(manifest.newest));
    store_manifest({agreed, 0});
  }
  return agreed;
}

}  // namespace skt::ckpt
