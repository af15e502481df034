#include "src/common/field.hpp"

#include <array>

#include "src/common/assert.hpp"

namespace qplec {
namespace {

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>((static_cast<__uint128_t>(a) * b) % m);
}

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  std::uint64_t r = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) r = mulmod(r, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return r;
}

}  // namespace

bool is_prime(std::uint64_t x) {
  if (x < 2) return false;
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull,
                          29ull, 31ull, 37ull}) {
    if (x == p) return true;
    if (x % p == 0) return false;
  }
  // Deterministic witness set for x < 3.3 * 10^24 (covers 2^63).
  std::uint64_t d = x - 1;
  int s = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++s;
  }
  for (std::uint64_t a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull,
                          29ull, 31ull, 37ull}) {
    std::uint64_t v = powmod(a, d, x);
    if (v == 1 || v == x - 1) continue;
    bool composite = true;
    for (int i = 1; i < s; ++i) {
      v = mulmod(v, v, x);
      if (v == x - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

std::uint64_t next_prime(std::uint64_t x) {
  QPLEC_REQUIRE(x >= 2);
  while (!is_prime(x)) ++x;
  return x;
}

PolyTable::PolyTable(std::uint32_t q, int k, std::size_t slots) : q_(q), k_(k) {
  QPLEC_REQUIRE(q_ >= 2);
  QPLEC_REQUIRE(q_ < (1u << 31));
  QPLEC_REQUIRE(k_ >= 0 && k_ < kMaxCoeffs);
  barrett_m_ = static_cast<std::uint64_t>((static_cast<__uint128_t>(1) << 64) / q_);
  coeffs_.assign(slots * width(), 0);
}

void PolyTable::set_value(std::size_t slot, std::uint64_t value) {
  std::array<std::uint32_t, kMaxCoeffs> digits{};
  for (std::size_t i = 0; i < width(); ++i) {
    digits[i] = static_cast<std::uint32_t>(value % q_);
    value /= q_;
  }
  QPLEC_REQUIRE_MSG(value == 0, "value does not fit in q^(k+1)");
  set_coeffs(slot, std::span<const std::uint32_t>(digits.data(), width()));
}

void PolyTable::set_coeffs(std::size_t slot, std::span<const std::uint32_t> coeffs) {
  QPLEC_REQUIRE(slot < slots());
  QPLEC_REQUIRE(coeffs.size() == width());
  std::uint32_t* out = coeffs_.data() + slot * width();
  for (std::size_t i = 0; i < width(); ++i) {
    QPLEC_REQUIRE(coeffs[i] < q_);
    out[width() - 1 - i] = coeffs[i];
  }
}

std::uint32_t PolyTable::eval(std::size_t slot, std::uint32_t x) const {
  QPLEC_REQUIRE(slot < slots());
  QPLEC_REQUIRE(x < q_);
  return eval_row(row(slot).data(), x);
}

std::uint32_t PolyTable::eval_row(const std::uint32_t* row, std::uint32_t x) const {
  std::uint64_t acc = 0;
  for (std::size_t j = 0; j < width(); ++j) acc = reduce(acc * x + row[j]);
  return static_cast<std::uint32_t>(acc);
}

bool PolyTable::any_agrees(std::span<const std::uint32_t> others, std::uint32_t x,
                           std::uint32_t v) const {
  // Four independent Horner chains at a time, so the multiply latency of one
  // chain overlaps the others; the verdict is the same as a one-by-one scan.
  const std::size_t w = width();
  const std::uint32_t* base = coeffs_.data();
  std::size_t n = 0;
  for (; n + 4 <= others.size(); n += 4) {
    const std::uint32_t* r0 = base + others[n] * w;
    const std::uint32_t* r1 = base + others[n + 1] * w;
    const std::uint32_t* r2 = base + others[n + 2] * w;
    const std::uint32_t* r3 = base + others[n + 3] * w;
    std::uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    for (std::size_t j = 0; j < w; ++j) {
      a0 = reduce(a0 * x + r0[j]);
      a1 = reduce(a1 * x + r1[j]);
      a2 = reduce(a2 * x + r2[j]);
      a3 = reduce(a3 * x + r3[j]);
    }
    if (a0 == v || a1 == v || a2 == v || a3 == v) return true;
  }
  for (; n < others.size(); ++n) {
    if (eval_row(base + others[n] * w, x) == v) return true;
  }
  return false;
}

std::uint64_t PolyTable::first_good_point(std::size_t slot,
                                          std::span<const std::uint32_t> others) const {
  QPLEC_REQUIRE(slot < slots());
  const std::uint32_t* mine = row(slot).data();
  std::uint32_t x = mine[k_];
  for (std::uint32_t t = 0; t < q_; ++t) {
    const std::uint32_t v = eval_row(mine, x);
    if (!any_agrees(others, x, v)) {
      return static_cast<std::uint64_t>(x) * q_ + v;
    }
    if (++x == q_) x = 0;
  }
  return kNoGoodPoint;
}

}  // namespace qplec
