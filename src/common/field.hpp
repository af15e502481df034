// Prime-field arithmetic used by Linial's polynomial color-reduction step.
//
// Linial's one-round reduction encodes a color c in {0, ..., m-1} as a
// polynomial of degree <= k over GF(q) (its base-q digits as coefficients) and
// recolors with a pair (a, p_c(a)).  This header provides primality testing,
// next-prime search, and PolyTable: every polynomial of one reduction step in
// one flat array, evaluated with a fixed-q Barrett reduction, plus the
// step's point-selection rule.  q ranges over [2, 2^31).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace qplec {

/// Deterministic Miller–Rabin for x < 2^63.
bool is_prime(std::uint64_t x);

/// Smallest prime >= x (x >= 2).
std::uint64_t next_prime(std::uint64_t x);

/// `slots` polynomials of degree <= k over GF(q), stored flat: row s holds
/// its k+1 coefficients in Horner order (coefficient of x^k first, constant
/// last), so an evaluation walks one contiguous row with no per-polynomial
/// allocation.  Evaluation reduces each Horner step acc*x + c (< q^2 < 2^62)
/// with a Barrett reduction by m = floor(2^64/q): one 64x64->128 multiply and
/// one conditional subtract, exact for every q < 2^31.
class PolyTable {
 public:
  /// Returned by first_good_point when every point collides.
  static constexpr std::uint64_t kNoGoodPoint = std::numeric_limits<std::uint64_t>::max();

  /// Largest supported k + 1 (choose_linial_params never exceeds it).
  static constexpr int kMaxCoeffs = 64;

  /// Requires 2 <= q < 2^31 and 0 <= k < kMaxCoeffs; every row starts as
  /// the zero polynomial.
  PolyTable(std::uint32_t q, int k, std::size_t slots);

  /// Row `slot` := the polynomial whose coefficients are the base-q digits of
  /// value (digit i is the coefficient of x^i).  Requires value < q^(k+1).
  void set_value(std::size_t slot, std::uint64_t value);

  /// Row `slot` := the polynomial with coeffs[i] the coefficient of x^i.
  /// Requires exactly k+1 coefficients, each < q.
  void set_coeffs(std::size_t slot, std::span<const std::uint32_t> coeffs);

  /// p_slot(x); requires x < q.
  std::uint32_t eval(std::size_t slot, std::uint32_t x) const;

  /// Linial's point-selection rule.  Scans x = s, s+1, ... (mod q) from the
  /// row's constant coefficient s (= value mod q, a color-dependent offset
  /// that only speeds the scan) and returns x*q + p_slot(x) for the first x
  /// at which no row in `others` agrees with row `slot`, or kNoGoodPoint.
  /// Each pair of distinct rows agrees on at most k points, so a point
  /// exists whenever q > k * others.size().  Every entry of `others` must
  /// be a slot of this table.
  std::uint64_t first_good_point(std::size_t slot, std::span<const std::uint32_t> others) const;

  /// Row `slot`'s coefficients in Horner order (x^k first).
  std::span<const std::uint32_t> row(std::size_t slot) const {
    return {coeffs_.data() + slot * width(), width()};
  }

 private:
  std::size_t width() const { return static_cast<std::size_t>(k_) + 1; }
  std::size_t slots() const { return coeffs_.size() / width(); }

  /// x mod q for x < 2^62.
  std::uint64_t reduce(std::uint64_t x) const {
    const auto est =
        static_cast<std::uint64_t>((static_cast<__uint128_t>(x) * barrett_m_) >> 64);
    const std::uint64_t r = x - est * q_;
    return r >= q_ ? r - q_ : r;
  }

  std::uint32_t eval_row(const std::uint32_t* row, std::uint32_t x) const;

  /// Whether any row in `others` evaluates to v at x.
  bool any_agrees(std::span<const std::uint32_t> others, std::uint32_t x,
                  std::uint32_t v) const;

  std::uint32_t q_;
  int k_;
  std::uint64_t barrett_m_;  ///< floor(2^64 / q)
  std::vector<std::uint32_t> coeffs_;
};

}  // namespace qplec
