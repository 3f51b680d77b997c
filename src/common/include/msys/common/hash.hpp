// Stable 64-bit content hashing for cache keys and canonical fingerprints.
//
// The engine's ScheduleCache addresses entries by a content hash of
// (application, machine, scheduler kind, options), so the hash must be
// identical across platforms, library versions and process runs — which
// rules out std::hash.  Hasher is a streaming FNV-1a over a canonical byte
// encoding: integers are fed little-endian at a fixed 8-byte width, strings
// are length-prefixed (so {"ab","c"} and {"a","bc"} differ), and every
// hash_append overload below documents the encoding it appends.
//
// finalize() runs the splitmix64 avalanche over the FNV state so that low
// bits are well mixed (FNV-1a alone mixes high bits poorly, which matters
// when a key's low bits pick a bucket).
//
// WordHasher takes the same values a word at a time, for digests that are
// computed per job (the model's canonical digests) or per lookup.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace msys {

/// Streaming FNV-1a/64 with a splitmix64 finalizer.  Same input sequence
/// => same digest on every platform.
class Hasher {
 public:
  constexpr Hasher() = default;

  constexpr void update_byte(std::uint8_t b) {
    state_ ^= b;
    state_ *= 0x100000001b3ULL;
  }

  /// Appends one unsigned value as exactly 8 little-endian bytes, so the
  /// digest is independent of the host's integer widths and endianness.
  constexpr void update_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      update_byte(static_cast<std::uint8_t>(v >> (8 * i)));
      }
  }

  /// Length-prefixed bytes: |s| as u64, then the raw characters.
  constexpr void update_bytes(std::string_view s) {
    update_u64(s.size());
    for (char c : s) update_byte(static_cast<std::uint8_t>(c));
  }

  /// Avalanched digest; does not consume the hasher (more data may follow).
  [[nodiscard]] constexpr std::uint64_t finalize() const {
    std::uint64_t z = state_ + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_{0xcbf29ce484222325ULL};
};

/// Word-at-a-time 64-bit hash: one step per 64-bit word instead of eight
/// byte steps, for the model's canonical digests (and so the engine's cache
/// keys) and in-memory hash-table keys.  A step xors the word into the
/// state, multiplies by an odd constant and folds the high half down; each
/// of those is a bijection of the state, so two inputs that differ in one
/// word never meet.  update_bytes() appends the length, then the bytes
/// packed little-endian eight to a word with the last word zero-padded, so
/// {"ab","c"} and {"a","bc"} differ.  finalize() is Hasher's avalanche.
/// The digests differ from Hasher's: anything persisted under one must be
/// versioned apart from the other.
class WordHasher {
 public:
  constexpr WordHasher() = default;

  constexpr void update_u64(std::uint64_t v) {
    state_ = (state_ ^ v) * 0x9e3779b97f4a7c15ULL;
    state_ ^= state_ >> 32;
  }

  void update_bytes(std::string_view s) {
    update_u64(s.size());
    const char* p = s.data();
    std::size_t left = s.size();
    for (; left >= 8; p += 8, left -= 8) update_u64(load_le(p, 8));
    if (left > 0) update_u64(load_le(p, left));
  }

  [[nodiscard]] constexpr std::uint64_t finalize() const {
    std::uint64_t z = state_ + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  /// The first `n` (1-8) bytes at `p` as a little-endian word, zero above,
  /// from fixed-width loads (a variable-length copy is a library call):
  /// two overlapping 4-byte loads from 4 bytes up, three byte loads below.
  static std::uint64_t load_le(const char* p, std::size_t n) {
    if (n == 8) return load_fixed<std::uint64_t>(p);
    if (n >= 4) {
      return load_fixed<std::uint32_t>(p) |
             (std::uint64_t{load_fixed<std::uint32_t>(p + n - 4)} << (8 * (n - 4)));
    }
    const auto byte = [p](std::size_t i) {
      return std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
    };
    return byte(0) | byte(n / 2) | byte(n - 1);
  }

  /// sizeof(T) bytes at `p` as a little-endian T.
  template <class T>
  static T load_fixed(const char* p) {
    T w;
    __builtin_memcpy(&w, p, sizeof(T));
    if constexpr (std::endian::native == std::endian::big) {
      if constexpr (sizeof(T) == 8) {
        w = __builtin_bswap64(w);
      } else {
        w = __builtin_bswap32(w);
      }
    }
    return w;
  }

  std::uint64_t state_{0xcbf29ce484222325ULL};
};

/// Integers (including bool, char, enums via the overload below) append
/// their value widened to u64; signed values append the two's-complement
/// bit pattern of the widened value.
template <class T>
  requires std::is_integral_v<T>
constexpr void hash_append(Hasher& h, T value) {
  h.update_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(value)));
}

template <class T>
  requires std::is_enum_v<T>
constexpr void hash_append(Hasher& h, T value) {
  hash_append(h, static_cast<std::underlying_type_t<T>>(value));
}

inline void hash_append(Hasher& h, std::string_view s) { h.update_bytes(s); }
inline void hash_append(Hasher& h, const std::string& s) {
  h.update_bytes(s);
}
inline void hash_append(Hasher& h, const char* s) {
  h.update_bytes(std::string_view(s));
}

/// Doubles append their IEEE-754 bit pattern (all options fields that feed
/// cache keys are exact-valued, so bit equality is the right notion).
inline void hash_append(Hasher& h, double value) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits = 0;
  __builtin_memcpy(&bits, &value, sizeof(bits));
  h.update_u64(bits);
}

/// Vectors append their length then each element.
template <class T>
void hash_append(Hasher& h, const std::vector<T>& v) {
  h.update_u64(v.size());
  for (const T& e : v) hash_append(h, e);
}

/// Convenience: one-shot hash of a pack of values.
template <class... Ts>
[[nodiscard]] std::uint64_t hash_of(const Ts&... values) {
  Hasher h;
  (hash_append(h, values), ...);
  return h.finalize();
}

}  // namespace msys
