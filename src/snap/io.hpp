// Binary container format for snapshots and journals (DESIGN.md §14).
//
// A file is a fixed header followed by named sections:
//
//   header:   magic "RTDSNAP\0" (8 bytes)
//             u32 format version
//             u64 config hash (what the payload is only valid against)
//   section:  u8  name length (> 0; 0 is the end-of-file marker)
//             name bytes
//             u64 body length
//             u64 checksum of the body (word-folded FNV-1a)
//             body bytes
//
// Everything is little-endian fixed-width; doubles travel as their IEEE-754
// bit pattern, so a round trip is bit-exact by construction. Every decode
// failure — wrong magic, version skew, config-hash mismatch, a checksum
// that does not match, or a read past a section body — throws
// ContractViolation naming the section and the absolute byte offset, so a
// corrupt file says *where* it broke instead of crashing downstream.
//
// Writer and Reader share one field vocabulary: `ar.u64(x)`, `ar.vec(v)`,
// `ar.count(n, bytes)` and the helpers below write a field when `ar` is a
// Writer and read into it when `ar` is a Reader, so each serialized type
// states its layout once, in a `template <class Ar> io(Ar&, T&)` body
// (snap/access.hpp). Loading-only work sits behind `if constexpr
// (Ar::kLoading)`. Every decoded count is bounds-checked against the bytes
// left in the section before anything is allocated for it, and every enum
// against its range.
//
// Writers buffer in memory and publish with an atomic rename (write_file),
// so a crash mid-save can never leave a half-written snapshot under the
// final name. Journals instead append whole sections to an open file and
// tolerate exactly one truncated *tail* section (the artifact of a SIGKILL
// mid-append); a damaged *complete* section is still a hard error.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace rtds::snap {

inline constexpr char kMagic[8] = {'R', 'T', 'D', 'S', 'N', 'A', 'P', '\0'};
// v2: InvariantChecker section grew the seq-monotone map and shed-queue
// accounting counters (PR 10) — old snapshots are rejected, not misread.
inline constexpr std::uint32_t kFormatVersion = 2;

/// FNV-1a 64-bit over a byte range (the building block for config hashes).
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t seed = 14695981039346656037ull);

/// The per-section checksum: FNV-1a folded 8 little-endian bytes per
/// multiply instead of 1. Byte-wise FNV is a serial ~1 byte/cycle chain,
/// which made checksum verification the dominant cost of opening large
/// sections (warm-start entries, full snapshots); word folding keeps the
/// single-bit-flip guarantee (xor-then-multiply-by-odd is injective per
/// step) at ~8x the throughput.
std::uint64_t section_checksum(const void* data, std::size_t size);

/// Incremental config-hash helper: absorb typed values into an FNV state.
class HashAbsorber {
 public:
  void u64(std::uint64_t v);
  void f64(double v);
  void str(std::string_view s);
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

class Writer {
 public:
  static constexpr bool kLoading = false;

  Writer(std::uint32_t version, std::uint64_t config_hash);

  void begin_section(std::string_view name);
  void end_section();

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void b(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);

  // --- the field vocabulary shared with Reader (see the file comment) ---

  /// An element count: written as a u64 and returned. The Reader reads it
  /// back and fails unless `n * min_bytes` fits in the section.
  std::size_t count(std::size_t n, std::size_t /*min_bytes*/) {
    u64(n);
    return n;
  }
  /// A value the loader already knows (site count, heap size, transport
  /// model): the Reader fails with `what` unless it reads back equal.
  template <std::unsigned_integral T>
  void expect(T v, std::string_view /*what*/) {
    static_assert(sizeof(T) == 1 || sizeof(T) == 8);
    if constexpr (sizeof(T) == 1)
      u8(v);
    else
      u64(v);
  }
  /// A scoped enum as one byte; the Reader rejects values outside
  /// [first, last].
  template <class E>
  void enum_u8(E e, E /*first*/, E /*last*/, std::string_view /*what*/) {
    u8(static_cast<std::uint8_t>(e));
  }
  /// Presence of an optional part (a fault plan, a sidecar): written as a
  /// bool and returned. The Reader fails with `file_has` / `file_lacks`
  /// when the file disagrees with what the loader holds.
  bool presence(bool have, std::string_view /*file_has*/,
                std::string_view /*file_lacks*/) {
    b(have);
    return have;
  }
  /// Bulk array of 4- or 8-byte unsigned integers or doubles: identical
  /// bytes to the scalar form in a loop, one append on little-endian
  /// hosts. The decode side of these is where warm-start hits and snapshot
  /// loads spend their time.
  template <class T>
  void array(const T* v, std::size_t n);
  /// A u64 length, then the elements in bulk.
  template <class T>
  void vec(const std::vector<T>& v) {
    u64(v.size());
    array(v.data(), v.size());
  }

  /// The finished container (appends the end-of-file marker once).
  const std::string& finish();

  /// finish() + atomic publish: writes to `path`.tmp and renames over
  /// `path`, so readers only ever see complete files.
  void write_file(const std::string& path);

 private:
  std::string out_;
  std::string section_name_;
  std::size_t body_start_ = 0;  ///< offset of the current section body
  bool finished_ = false;
};

/// What try_next_section found at the read cursor.
enum class SectionStatus {
  kOk,         ///< a complete, checksum-verified section
  kEnd,        ///< the end-of-file marker (or clean EOF, journal mode)
  kTruncated,  ///< an incomplete tail section (crash artifact)
};

class Reader {
 public:
  static constexpr bool kLoading = true;

  /// Parses and validates the header; throws on wrong magic or a version
  /// newer than this build understands.
  explicit Reader(std::string data, std::string_view what = "snapshot");

  /// Reads the whole file (throws ContractViolation when unreadable).
  static Reader from_file(const std::string& path,
                          std::string_view what = "snapshot");

  /// Requires the configuration hash recorded in the header to equal
  /// `expected` (the caller recomputed it from its own config).
  void require_config_hash(std::uint64_t expected) const;

  /// Opens the next section and requires it to be `name`; verifies the
  /// checksum over the whole body before any field is decoded.
  void begin_section(std::string_view name);

  /// Journal-mode iteration: advances to the next section, verifying its
  /// checksum. kTruncated means the file ends inside the section header or
  /// body — the tail a killed writer leaves — and the cursor stops there.
  SectionStatus try_next_section(std::string& name);

  /// Requires the current section body to be fully consumed.
  void end_section();

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool b() { return u8() != 0; }
  std::string str();

  // --- the field vocabulary shared with Writer (see the file comment) ---

  template <std::integral T>
  void u8(T& v) { v = static_cast<T>(u8()); }
  template <std::integral T>
  void u32(T& v) { v = static_cast<T>(u32()); }
  template <std::integral T>
  void u64(T& v) { v = static_cast<T>(u64()); }
  template <std::integral T>
  void i64(T& v) { v = static_cast<T>(i64()); }
  void f64(double& v) { v = f64(); }
  void b(bool& v) { v = b(); }
  void str(std::string& s) { s = str(); }

  /// Reads an element count and fails unless `count * min_bytes` fits in
  /// what is left of the section — before the caller allocates for it.
  std::size_t count(std::size_t /*n*/, std::size_t min_bytes);
  /// Fails unless the next u8 / u64 equals `v`.
  template <std::unsigned_integral T>
  void expect(T v, std::string_view what) {
    static_assert(sizeof(T) == 1 || sizeof(T) == 8);
    const std::uint64_t got = sizeof(T) == 1 ? u8() : u64();
    if (got != v) fail(std::string(what));
  }
  template <class E>
  void enum_u8(E& e, E first, E last, std::string_view what) {
    const std::uint8_t v = u8();
    if (v < static_cast<std::uint8_t>(first) ||
        v > static_cast<std::uint8_t>(last))
      fail(std::string(what) + " " + std::to_string(v) + " out of range");
    e = static_cast<E>(v);
  }
  bool presence(bool have, std::string_view file_has,
                std::string_view file_lacks) {
    const bool in_file = b();
    if (in_file != have) fail(std::string(in_file ? file_has : file_lacks));
    return in_file;
  }
  /// One bounds check + one memcpy on little-endian hosts.
  template <class T>
  void array(T* v, std::size_t n);
  template <class T>
  void vec(std::vector<T>& v) {
    v.resize(count(0, sizeof(T)));
    array(v.data(), v.size());
  }

  /// Fails unless `n` elements of `width` bytes fit in the rest of the
  /// section (divides, so a hostile `n` cannot wrap the product).
  void require_fits(std::size_t n, std::size_t width);

  /// Bytes left in the current section body.
  std::size_t section_remaining() const { return section_end_ - pos_; }

  /// Throws a ContractViolation naming the current section and offset.
  [[noreturn]] void fail(const std::string& why) const;

 private:
  void need(std::size_t n);  ///< bounds check against the section body
  /// A little-endian value of `bytes` bytes at the cursor.
  std::uint64_t fixed(std::size_t bytes);

  std::string data_;
  std::string what_;
  std::size_t pos_ = 0;
  std::uint32_t version_ = 0;
  std::uint64_t config_hash_ = 0;
  std::string section_;
  std::size_t section_end_ = 0;
};

namespace detail {
/// On a little-endian host the in-memory representation IS the wire
/// representation, so bulk writes and reads collapse to one copy.
inline constexpr bool kHostIsLittle =
    std::endian::native == std::endian::little;
template <class T>
inline constexpr bool kBulkElement =
    std::is_same_v<T, double> ||
    (std::is_unsigned_v<T> && (sizeof(T) == 4 || sizeof(T) == 8));
}  // namespace detail

template <class T>
void Writer::array(const T* v, std::size_t n) {
  static_assert(detail::kBulkElement<T>);
  if (n == 0) return;  // v may be null for an empty vector
  if constexpr (detail::kHostIsLittle) {
    out_.append(reinterpret_cast<const char*>(v), n * sizeof(T));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      if constexpr (std::is_same_v<T, double>) f64(v[i]);
      else if constexpr (sizeof(T) == 4) u32(v[i]);
      else u64(v[i]);
    }
  }
}

template <class T>
void Reader::array(T* v, std::size_t n) {
  static_assert(detail::kBulkElement<T>);
  if (n == 0) return;  // v may be null for an empty vector
  require_fits(n, sizeof(T));
  if constexpr (detail::kHostIsLittle) {
    std::memcpy(v, data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      if constexpr (std::is_same_v<T, double>) v[i] = f64();
      else if constexpr (sizeof(T) == 4) v[i] = u32();
      else v[i] = u64();
    }
  }
}

/// A vector's length: written as a u64; on load, read through count() and
/// the vector refilled with that many copies of `blank`. Returns the length.
template <class Ar, class T>
std::size_t length(Ar& ar, std::vector<T>& v, std::size_t min_bytes,
                   const T& blank = T{}) {
  const std::size_t n = ar.count(v.size(), min_bytes);
  if constexpr (Ar::kLoading) v.assign(n, blank);
  return n;
}

/// One field of a struct-of-arrays layout: the `field` of every row as one
/// bulk array of `Wire`. The rows must already have their final length.
template <class Wire, class Ar, class Row, class Field>
void column(Ar& ar, std::vector<Row>& rows, Field Row::*field) {
  std::vector<Wire> col(rows.size());
  if constexpr (!Ar::kLoading)
    for (std::size_t i = 0; i < rows.size(); ++i)
      col[i] = static_cast<Wire>(rows[i].*field);
  ar.array(col.data(), col.size());
  if constexpr (Ar::kLoading)
    for (std::size_t i = 0; i < rows.size(); ++i)
      rows[i].*field = static_cast<Field>(col[i]);
}

/// An optional value as a presence bool, then `body(value)` when present.
template <class Ar, class T, class Body>
void maybe(Ar& ar, std::optional<T>& o, Body body) {
  bool has = o.has_value();
  ar.b(has);
  if constexpr (Ar::kLoading) {
    o.reset();
    if (has) o.emplace();
  }
  if (has) body(*o);
}

/// A keyed collection as a count, then `entry(ar, key, value)` per entry
/// in ascending key order (sorted_items() for the flat tables, whose probe
/// order is unspecified). Loading replaces the collection.
template <class Ar, class Map, class Entry>
void entries(Ar& ar, Map& m, std::size_t min_bytes, Entry entry) {
  if constexpr (Ar::kLoading) {
    const std::size_t n = ar.count(0, min_bytes);
    m = Map{};
    if constexpr (requires { m.reserve(n); }) m.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      typename Map::key_type key{};
      typename Map::mapped_type value{};
      entry(ar, key, value);
      m[key] = std::move(value);
    }
  } else if constexpr (requires { m.sorted_items(); }) {
    auto items = m.sorted_items();
    ar.count(items.size(), min_bytes);
    for (auto& [key, value] : items) entry(ar, key, value);
  } else {
    ar.count(m.size(), min_bytes);
    for (auto& [key, value] : m) entry(ar, key, value);
  }
}

}  // namespace rtds::snap
