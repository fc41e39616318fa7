#include "rsyncx/md5.h"

#include <cstring>

#include "check/contract.h"
#include "util/result.h"

namespace droute::rsyncx {

namespace {

constexpr std::uint32_t rotl(std::uint32_t x, int c) {
  return (x << c) | (x >> (32 - c));
}

// RFC 1321's auxiliary functions. G is written as a sum: its two terms share
// no bits, so + equals |, and ~z & y does not wait on x (the state word the
// previous step just produced), which takes it off the critical path.
constexpr std::uint32_t fun_f(std::uint32_t x, std::uint32_t y,
                              std::uint32_t z) {
  return (x & y) | (~x & z);
}
constexpr std::uint32_t fun_g(std::uint32_t x, std::uint32_t y,
                              std::uint32_t z) {
  return (~z & y) + (x & z);
}
constexpr std::uint32_t fun_h(std::uint32_t x, std::uint32_t y,
                              std::uint32_t z) {
  return x ^ y ^ z;
}
constexpr std::uint32_t fun_i(std::uint32_t x, std::uint32_t y,
                              std::uint32_t z) {
  return y ^ (x | ~z);
}

}  // namespace

Md5::Md5() : state_{0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u} {}

// The 64 steps in RFC 1321's reference layout (section 3.4 / appendix A.3):
// constant message indices, shifts and sines, no per-step branch or table.
#define DROUTE_MD5_STEP(fun, a, b, c, d, k, s, t) \
  (a) += fun((b), (c), (d)) + m[k] + (t);         \
  (a) = rotl((a), (s)) + (b)

void Md5::process_block(const std::uint8_t* block) {
  // Portable little-endian load; GCC folds it into a plain 32-bit load.
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(block[i * 4]) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 8) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 3]) << 24);
  }
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  // Round 1.
  DROUTE_MD5_STEP(fun_f, a, b, c, d, 0, 7, 0xd76aa478u);
  DROUTE_MD5_STEP(fun_f, d, a, b, c, 1, 12, 0xe8c7b756u);
  DROUTE_MD5_STEP(fun_f, c, d, a, b, 2, 17, 0x242070dbu);
  DROUTE_MD5_STEP(fun_f, b, c, d, a, 3, 22, 0xc1bdceeeu);
  DROUTE_MD5_STEP(fun_f, a, b, c, d, 4, 7, 0xf57c0fafu);
  DROUTE_MD5_STEP(fun_f, d, a, b, c, 5, 12, 0x4787c62au);
  DROUTE_MD5_STEP(fun_f, c, d, a, b, 6, 17, 0xa8304613u);
  DROUTE_MD5_STEP(fun_f, b, c, d, a, 7, 22, 0xfd469501u);
  DROUTE_MD5_STEP(fun_f, a, b, c, d, 8, 7, 0x698098d8u);
  DROUTE_MD5_STEP(fun_f, d, a, b, c, 9, 12, 0x8b44f7afu);
  DROUTE_MD5_STEP(fun_f, c, d, a, b, 10, 17, 0xffff5bb1u);
  DROUTE_MD5_STEP(fun_f, b, c, d, a, 11, 22, 0x895cd7beu);
  DROUTE_MD5_STEP(fun_f, a, b, c, d, 12, 7, 0x6b901122u);
  DROUTE_MD5_STEP(fun_f, d, a, b, c, 13, 12, 0xfd987193u);
  DROUTE_MD5_STEP(fun_f, c, d, a, b, 14, 17, 0xa679438eu);
  DROUTE_MD5_STEP(fun_f, b, c, d, a, 15, 22, 0x49b40821u);

  // Round 2.
  DROUTE_MD5_STEP(fun_g, a, b, c, d, 1, 5, 0xf61e2562u);
  DROUTE_MD5_STEP(fun_g, d, a, b, c, 6, 9, 0xc040b340u);
  DROUTE_MD5_STEP(fun_g, c, d, a, b, 11, 14, 0x265e5a51u);
  DROUTE_MD5_STEP(fun_g, b, c, d, a, 0, 20, 0xe9b6c7aau);
  DROUTE_MD5_STEP(fun_g, a, b, c, d, 5, 5, 0xd62f105du);
  DROUTE_MD5_STEP(fun_g, d, a, b, c, 10, 9, 0x02441453u);
  DROUTE_MD5_STEP(fun_g, c, d, a, b, 15, 14, 0xd8a1e681u);
  DROUTE_MD5_STEP(fun_g, b, c, d, a, 4, 20, 0xe7d3fbc8u);
  DROUTE_MD5_STEP(fun_g, a, b, c, d, 9, 5, 0x21e1cde6u);
  DROUTE_MD5_STEP(fun_g, d, a, b, c, 14, 9, 0xc33707d6u);
  DROUTE_MD5_STEP(fun_g, c, d, a, b, 3, 14, 0xf4d50d87u);
  DROUTE_MD5_STEP(fun_g, b, c, d, a, 8, 20, 0x455a14edu);
  DROUTE_MD5_STEP(fun_g, a, b, c, d, 13, 5, 0xa9e3e905u);
  DROUTE_MD5_STEP(fun_g, d, a, b, c, 2, 9, 0xfcefa3f8u);
  DROUTE_MD5_STEP(fun_g, c, d, a, b, 7, 14, 0x676f02d9u);
  DROUTE_MD5_STEP(fun_g, b, c, d, a, 12, 20, 0x8d2a4c8au);

  // Round 3.
  DROUTE_MD5_STEP(fun_h, a, b, c, d, 5, 4, 0xfffa3942u);
  DROUTE_MD5_STEP(fun_h, d, a, b, c, 8, 11, 0x8771f681u);
  DROUTE_MD5_STEP(fun_h, c, d, a, b, 11, 16, 0x6d9d6122u);
  DROUTE_MD5_STEP(fun_h, b, c, d, a, 14, 23, 0xfde5380cu);
  DROUTE_MD5_STEP(fun_h, a, b, c, d, 1, 4, 0xa4beea44u);
  DROUTE_MD5_STEP(fun_h, d, a, b, c, 4, 11, 0x4bdecfa9u);
  DROUTE_MD5_STEP(fun_h, c, d, a, b, 7, 16, 0xf6bb4b60u);
  DROUTE_MD5_STEP(fun_h, b, c, d, a, 10, 23, 0xbebfbc70u);
  DROUTE_MD5_STEP(fun_h, a, b, c, d, 13, 4, 0x289b7ec6u);
  DROUTE_MD5_STEP(fun_h, d, a, b, c, 0, 11, 0xeaa127fau);
  DROUTE_MD5_STEP(fun_h, c, d, a, b, 3, 16, 0xd4ef3085u);
  DROUTE_MD5_STEP(fun_h, b, c, d, a, 6, 23, 0x04881d05u);
  DROUTE_MD5_STEP(fun_h, a, b, c, d, 9, 4, 0xd9d4d039u);
  DROUTE_MD5_STEP(fun_h, d, a, b, c, 12, 11, 0xe6db99e5u);
  DROUTE_MD5_STEP(fun_h, c, d, a, b, 15, 16, 0x1fa27cf8u);
  DROUTE_MD5_STEP(fun_h, b, c, d, a, 2, 23, 0xc4ac5665u);

  // Round 4.
  DROUTE_MD5_STEP(fun_i, a, b, c, d, 0, 6, 0xf4292244u);
  DROUTE_MD5_STEP(fun_i, d, a, b, c, 7, 10, 0x432aff97u);
  DROUTE_MD5_STEP(fun_i, c, d, a, b, 14, 15, 0xab9423a7u);
  DROUTE_MD5_STEP(fun_i, b, c, d, a, 5, 21, 0xfc93a039u);
  DROUTE_MD5_STEP(fun_i, a, b, c, d, 12, 6, 0x655b59c3u);
  DROUTE_MD5_STEP(fun_i, d, a, b, c, 3, 10, 0x8f0ccc92u);
  DROUTE_MD5_STEP(fun_i, c, d, a, b, 10, 15, 0xffeff47du);
  DROUTE_MD5_STEP(fun_i, b, c, d, a, 1, 21, 0x85845dd1u);
  DROUTE_MD5_STEP(fun_i, a, b, c, d, 8, 6, 0x6fa87e4fu);
  DROUTE_MD5_STEP(fun_i, d, a, b, c, 15, 10, 0xfe2ce6e0u);
  DROUTE_MD5_STEP(fun_i, c, d, a, b, 6, 15, 0xa3014314u);
  DROUTE_MD5_STEP(fun_i, b, c, d, a, 13, 21, 0x4e0811a1u);
  DROUTE_MD5_STEP(fun_i, a, b, c, d, 4, 6, 0xf7537e82u);
  DROUTE_MD5_STEP(fun_i, d, a, b, c, 11, 10, 0xbd3af235u);
  DROUTE_MD5_STEP(fun_i, c, d, a, b, 2, 15, 0x2ad7d2bbu);
  DROUTE_MD5_STEP(fun_i, b, c, d, a, 9, 21, 0xeb86d391u);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

#undef DROUTE_MD5_STEP

void Md5::update(std::span<const std::uint8_t> data) {
  DROUTE_CHECK(!finalized_, "Md5::update after finalize");
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Md5Digest Md5::finalize() {
  DROUTE_CHECK(!finalized_, "Md5::finalize called twice");
  finalized_ = true;
  const std::uint64_t bit_length = total_bytes_ * 8;

  // Padding: 0x80, zeros, then 64-bit little-endian length.
  std::array<std::uint8_t, 72> pad{};
  pad[0] = 0x80;
  const std::size_t pad_len =
      (buffered_ < 56) ? 56 - buffered_ : 120 - buffered_;
  // Feed padding and length through the block machinery manually.
  finalized_ = false;
  update(std::span<const std::uint8_t>(pad.data(), pad_len));
  std::array<std::uint8_t, 8> len_bytes;
  for (int i = 0; i < 8; ++i) {
    len_bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_length >> (8 * i));
  }
  update(len_bytes);
  finalized_ = true;
  DROUTE_CHECK(buffered_ == 0, "MD5 padding error");

  Md5Digest digest;
  for (int w = 0; w < 4; ++w) {
    for (int b = 0; b < 4; ++b) {
      digest[static_cast<std::size_t>(w * 4 + b)] =
          static_cast<std::uint8_t>(state_[static_cast<std::size_t>(w)] >>
                                    (8 * b));
    }
  }
  return digest;
}

Md5Digest Md5::hash(std::span<const std::uint8_t> data) {
  Md5 md5;
  md5.update(data);
  return md5.finalize();
}

std::string to_hex(const Md5Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

}  // namespace droute::rsyncx
