#include "snap/io.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace rtds::snap {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void append_le(std::string& out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t read_le(const char* p, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}
}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t seed) {
  std::uint64_t h = seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t section_checksum(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 14695981039346656037ull;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word;
    if constexpr (detail::kHostIsLittle) {
      std::memcpy(&word, p + i, 8);
    } else {
      word = read_le(reinterpret_cast<const char*>(p) + i, 8);
    }
    h = (h ^ word) * kFnvPrime;
  }
  for (; i < size; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

void HashAbsorber::u64(std::uint64_t v) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  h_ = fnv1a(buf, 8, h_);
}

void HashAbsorber::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void HashAbsorber::str(std::string_view s) {
  u64(s.size());
  h_ = fnv1a(s.data(), s.size(), h_);
}

Writer::Writer(std::uint32_t version, std::uint64_t config_hash) {
  out_.append(kMagic, sizeof(kMagic));
  append_le(out_, version, 4);
  append_le(out_, config_hash, 8);
}

void Writer::begin_section(std::string_view name) {
  RTDS_REQUIRE_MSG(section_name_.empty(), "unclosed section '"
                                              << section_name_ << "'");
  RTDS_REQUIRE_MSG(!name.empty() && name.size() < 256,
                   "section name must be 1..255 bytes");
  RTDS_REQUIRE(!finished_);
  section_name_ = name;
  out_.push_back(static_cast<char>(name.size()));
  out_.append(name);
  // Placeholders for body length + checksum, patched by end_section.
  append_le(out_, 0, 8);
  append_le(out_, 0, 8);
  body_start_ = out_.size();
}

void Writer::end_section() {
  RTDS_REQUIRE_MSG(!section_name_.empty(), "end_section without a section");
  const std::size_t body_len = out_.size() - body_start_;
  const std::uint64_t sum = section_checksum(out_.data() + body_start_, body_len);
  std::string patch;
  append_le(patch, body_len, 8);
  append_le(patch, sum, 8);
  out_.replace(body_start_ - 16, 16, patch);
  section_name_.clear();
}

void Writer::u8(std::uint8_t v) { append_le(out_, v, 1); }
void Writer::u32(std::uint32_t v) { append_le(out_, v, 4); }
void Writer::u64(std::uint64_t v) { append_le(out_, v, 8); }
void Writer::i64(std::int64_t v) {
  append_le(out_, static_cast<std::uint64_t>(v), 8);
}

void Writer::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  append_le(out_, bits, 8);
}

void Writer::str(std::string_view s) {
  u64(s.size());
  out_.append(s);
}

const std::string& Writer::finish() {
  RTDS_REQUIRE_MSG(section_name_.empty(), "unclosed section '"
                                              << section_name_ << "'");
  if (!finished_) {
    out_.push_back('\0');  // end-of-file marker (name length 0)
    finished_ = true;
  }
  return out_;
}

void Writer::write_file(const std::string& path) {
  const std::string& data = finish();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    RTDS_REQUIRE_MSG(os.good(), "cannot open '" << tmp << "' for writing");
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
    RTDS_REQUIRE_MSG(os.good(), "short write to '" << tmp << "'");
  }
  RTDS_REQUIRE_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                   "cannot publish snapshot to '" << path << "'");
}

Reader::Reader(std::string data, std::string_view what)
    : data_(std::move(data)), what_(what) {
  if (data_.size() < sizeof(kMagic) + 4 + 8)
    RTDS_REQUIRE_MSG(false, what_ << " header truncated: " << data_.size()
                                  << " bytes, need "
                                  << sizeof(kMagic) + 4 + 8);
  if (std::memcmp(data_.data(), kMagic, sizeof(kMagic)) != 0)
    RTDS_REQUIRE_MSG(false, what_ << " has wrong magic (offset 0): not a "
                                     "snapshot container");
  pos_ = sizeof(kMagic);
  version_ = static_cast<std::uint32_t>(read_le(data_.data() + pos_, 4));
  pos_ += 4;
  config_hash_ = read_le(data_.data() + pos_, 8);
  pos_ += 8;
  if (version_ != kFormatVersion)
    RTDS_REQUIRE_MSG(false, what_ << " format version " << version_
                                  << " (offset 8) not supported; this build "
                                     "reads version "
                                  << kFormatVersion);
  section_end_ = pos_;
}

Reader Reader::from_file(const std::string& path, std::string_view what) {
  std::ifstream is(path, std::ios::binary);
  RTDS_REQUIRE_MSG(is.good(), "cannot open " << what << " file '" << path
                                             << "'");
  std::ostringstream ss;
  ss << is.rdbuf();
  return Reader(std::move(ss).str(), what);
}

void Reader::require_config_hash(std::uint64_t expected) const {
  if (config_hash_ != expected)
    RTDS_REQUIRE_MSG(false,
                     what_ << " config hash mismatch (offset 12): file has "
                           << config_hash_ << ", this configuration hashes to "
                           << expected
                           << " — the snapshot was taken under a different "
                              "topology/config");
}

SectionStatus Reader::try_next_section(std::string& name) {
  section_.clear();
  if (pos_ >= data_.size()) return SectionStatus::kEnd;  // journal clean EOF
  const auto name_len =
      static_cast<std::size_t>(static_cast<unsigned char>(data_[pos_]));
  if (name_len == 0) return SectionStatus::kEnd;
  if (pos_ + 1 + name_len + 16 > data_.size()) return SectionStatus::kTruncated;
  name.assign(data_.data() + pos_ + 1, name_len);
  const std::size_t body_len =
      static_cast<std::size_t>(read_le(data_.data() + pos_ + 1 + name_len, 8));
  const std::uint64_t sum = read_le(data_.data() + pos_ + 1 + name_len + 8, 8);
  const std::size_t body_off = pos_ + 1 + name_len + 16;
  // Compared against what is left, so a hostile length cannot wrap.
  if (body_len > data_.size() - body_off) return SectionStatus::kTruncated;
  if (section_checksum(data_.data() + body_off, body_len) != sum) {
    section_ = name;  // so fail() names the damaged section
    pos_ = body_off;
    fail("checksum mismatch: section is corrupt");
  }
  section_ = name;
  pos_ = body_off;
  section_end_ = body_off + body_len;
  return SectionStatus::kOk;
}

void Reader::begin_section(std::string_view name) {
  std::string found;
  const SectionStatus st = try_next_section(found);
  if (st == SectionStatus::kEnd)
    RTDS_REQUIRE_MSG(false, what_ << " ends at offset " << pos_
                                  << " but section '" << name
                                  << "' was expected");
  if (st == SectionStatus::kTruncated)
    RTDS_REQUIRE_MSG(false, what_ << " truncated at offset " << pos_
                                  << " inside section '" << name << "'");
  if (found != name)
    RTDS_REQUIRE_MSG(false, what_ << " has section '" << found
                                  << "' at offset " << pos_ << " where '"
                                  << name << "' was expected");
}

void Reader::end_section() {
  if (pos_ != section_end_)
    fail("section has " + std::to_string(section_end_ - pos_) +
         " undecoded bytes");
  section_.clear();
}

std::size_t Reader::count(std::size_t, std::size_t min_bytes) {
  const std::uint64_t n = u64();
  if (n > section_remaining() / min_bytes)
    fail("element count " + std::to_string(n) +
         " exceeds the remaining section body");
  return static_cast<std::size_t>(n);
}

void Reader::require_fits(std::size_t n, std::size_t width) {
  if (width != 0 && n > section_remaining() / width)
    fail(std::to_string(n) + " elements of " + std::to_string(width) +
         " bytes extend past the section");
}

void Reader::need(std::size_t n) {
  // Compares against what is left, so a hostile string length cannot wrap.
  if (n > section_end_ - pos_) fail("read past the end of the section body");
}

std::uint64_t Reader::fixed(std::size_t bytes) {
  need(bytes);
  const std::uint64_t v = read_le(data_.data() + pos_, bytes);
  pos_ += bytes;
  return v;
}

std::uint8_t Reader::u8() { return static_cast<std::uint8_t>(fixed(1)); }
std::uint32_t Reader::u32() { return static_cast<std::uint32_t>(fixed(4)); }
std::uint64_t Reader::u64() { return fixed(8); }
std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::str() {
  const std::uint64_t len = u64();
  need(static_cast<std::size_t>(len));
  std::string s(data_.data() + pos_, static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return s;
}

void Reader::fail(const std::string& why) const {
  RTDS_REQUIRE_MSG(false, what_ << " section '"
                                << (section_.empty() ? "<header>" : section_)
                                << "' at offset " << pos_ << ": " << why);
}

}  // namespace rtds::snap
