#include "core/binary_io.hpp"

#include <cstring>

#include "core/fingerprint.hpp"

namespace seo {

namespace {

std::uint64_t fnv1a_over(std::string_view bytes) {
  FingerprintHasher hasher;
  hasher.mix_bytes(bytes.data(), bytes.size());
  return hasher.digest();
}

}  // namespace

void BinaryWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void BinaryWriter::checksum_from(std::size_t mark) {
  u64(fnv1a_over(std::string_view(out_).substr(mark)));
}

double BinaryReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void BinaryReader::bytes(void* dst, std::size_t size) {
  std::memcpy(dst, take(size), size);
}

std::string BinaryReader::str(std::size_t max_size) {
  const std::uint32_t size = u32();
  if (size > max_size)
    throw BinaryIoError("binary string length " + std::to_string(size) +
                        " exceeds cap " + std::to_string(max_size));
  return std::string(view(size));
}

void BinaryReader::require_exhausted(const char* what) const {
  if (!exhausted())
    throw BinaryIoError(std::string(what) + ": " +
                        std::to_string(remaining()) +
                        " trailing bytes after the last field");
}

void BinaryReader::verify_checksum_from(std::size_t mark, const char* what) {
  const std::string_view spanned = data_.substr(mark, offset_ - mark);
  const std::uint64_t expected = fnv1a_over(spanned);
  const std::uint64_t stored = u64();
  if (stored != expected)
    throw BinaryIoError(std::string(what) + ": checksum mismatch (stored " +
                        fingerprint_hex(stored) + ", computed " +
                        fingerprint_hex(expected) + ")");
}

const char* BinaryReader::take(std::size_t size) {
  if (size > remaining())
    throw BinaryIoError("binary read of " + std::to_string(size) +
                        " bytes overruns the buffer (" +
                        std::to_string(remaining()) + " left)");
  const char* p = data_.data() + offset_;
  offset_ += size;
  return p;
}

std::uint64_t BinaryReader::gather(std::size_t size) {
  const char* p = take(size);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < size; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}

}  // namespace seo
