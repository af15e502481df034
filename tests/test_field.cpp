#include "src/common/field.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

namespace qplec {
namespace {

TEST(IsPrime, SmallValues) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(5));
  EXPECT_FALSE(is_prime(9));
  EXPECT_TRUE(is_prime(97));
  EXPECT_FALSE(is_prime(91));  // 7*13
}

TEST(IsPrime, Carmichael) {
  // Carmichael numbers fool Fermat but not Miller–Rabin with these bases.
  for (std::uint64_t c : {561ull, 1105ull, 1729ull, 2465ull, 2821ull, 6601ull}) {
    EXPECT_FALSE(is_prime(c)) << c;
  }
}

TEST(IsPrime, LargeKnown) {
  EXPECT_TRUE(is_prime(2147483647ull));          // 2^31 - 1 (Mersenne)
  EXPECT_TRUE(is_prime(1000000007ull));
  EXPECT_TRUE(is_prime(1000000009ull));
  EXPECT_FALSE(is_prime(1000000007ull * 3));
  EXPECT_TRUE(is_prime((1ull << 61) - 1));       // Mersenne prime
}

TEST(IsPrime, SieveCrossCheck) {
  // Cross-check against trial division up to 10000.
  for (std::uint64_t x = 2; x <= 10000; ++x) {
    bool composite = false;
    for (std::uint64_t d = 2; d * d <= x; ++d) {
      if (x % d == 0) {
        composite = true;
        break;
      }
    }
    EXPECT_EQ(is_prime(x), !composite) << x;
  }
}

TEST(NextPrime, Values) {
  EXPECT_EQ(next_prime(2), 2u);
  EXPECT_EQ(next_prime(8), 11u);
  EXPECT_EQ(next_prime(14), 17u);
  EXPECT_EQ(next_prime(997), 997u);
  EXPECT_EQ(next_prime(998), 1009u);
}

// The GFPoly suite covers polynomials over GF(q) as PolyTable rows.

/// Row `slot`'s coefficients, constant first (the table stores x^k first).
std::vector<std::uint32_t> digits(const PolyTable& t, std::size_t slot) {
  const auto row = t.row(slot);
  return {row.rbegin(), row.rend()};
}

TEST(GFPoly, FromIntegerRoundtrip) {
  // Coefficients are base-q digits.
  PolyTable t(97, 3, 1);
  t.set_value(0, 123456);
  std::uint64_t reconstructed = 0;
  std::uint64_t pow = 1;
  for (std::uint32_t c : digits(t, 0)) {
    reconstructed += c * pow;
    pow *= 97;
  }
  EXPECT_EQ(reconstructed, 123456u);
}

TEST(GFPoly, FromIntegerRejectsOverflow) {
  PolyTable t(7, 2, 1);
  EXPECT_THROW(t.set_value(0, 1000), std::invalid_argument);  // 7^3=343
}

TEST(GFPoly, EvalMatchesHorner) {
  PolyTable t(7, 2, 1);
  t.set_coeffs(0, std::vector<std::uint32_t>{3, 1, 4});  // 3 + x + 4x^2 mod 7
  for (std::uint32_t x = 0; x < 7; ++x) {
    EXPECT_EQ(t.eval(0, x), (3 + x + 4 * x * x) % 7);
  }
}

TEST(GFPoly, DistinctIntegersGiveDistinctPolynomials) {
  // The cover-free property rests on injectivity of the digit encoding.
  PolyTable t(7, 2, 343);
  std::set<std::vector<std::uint32_t>> seen;
  for (std::uint64_t v = 0; v < 343; ++v) {
    t.set_value(v, v);
    seen.insert(digits(t, v));
  }
  EXPECT_EQ(seen.size(), 343u);
}

TEST(GFPoly, TwoDistinctPolysAgreeOnAtMostKPoints) {
  // Degree-<=k polynomials over GF(q): p - p' has <= k roots.
  const std::uint32_t q = 13;
  const int k = 2;
  PolyTable t(q, k, 60);
  for (std::uint64_t v = 0; v < 60; ++v) t.set_value(v, v);
  for (std::size_t a = 0; a < 60; ++a) {
    for (std::size_t b = a + 1; b < 60; ++b) {
      int agreements = 0;
      for (std::uint32_t x = 0; x < q; ++x) {
        if (t.eval(a, x) == t.eval(b, x)) ++agreements;
      }
      EXPECT_LE(agreements, k);
    }
  }
}

TEST(GFPoly, RejectsBadConstruction) {
  PolyTable t(7, 0, 1);
  EXPECT_THROW(t.set_coeffs(0, std::vector<std::uint32_t>{7}), std::invalid_argument);
  EXPECT_THROW(t.set_coeffs(0, std::vector<std::uint32_t>{}), std::invalid_argument);
  EXPECT_THROW(t.set_coeffs(1, std::vector<std::uint32_t>{1}), std::invalid_argument);
  EXPECT_THROW(PolyTable(1, 0, 1), std::invalid_argument);
  EXPECT_THROW(PolyTable(1u << 31, 0, 1), std::invalid_argument);
  EXPECT_THROW(PolyTable(7, -1, 1), std::invalid_argument);
  EXPECT_THROW(PolyTable(7, PolyTable::kMaxCoeffs, 1), std::invalid_argument);
  EXPECT_THROW(t.eval(0, 7), std::invalid_argument);
}

/// Reference evaluation: Horner with a plain 64-bit %, coefficients
/// constant first.
std::uint32_t naive_eval(const std::vector<std::uint32_t>& coeffs, std::uint32_t q,
                         std::uint32_t x) {
  std::uint64_t acc = 0;
  for (auto it = coeffs.rbegin(); it != coeffs.rend(); ++it) acc = (acc * x + *it) % q;
  return static_cast<std::uint32_t>(acc);
}

TEST(PolyTable, BarrettMatchesNaiveHorner) {
  std::mt19937_64 rng(20200803);
  for (int trial = 0; trial < 400; ++trial) {
    // Moduli spread over [2, 2^31): small, mid and near the top of the range.
    const int bits = 1 + static_cast<int>(rng() % 31);
    const std::uint64_t lo = std::max<std::uint64_t>(2, (1ull << bits) >> 1);
    const auto q = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(lo + rng() % lo + 1, (1ull << 31) - 1));
    const int k = static_cast<int>(rng() % 9);
    PolyTable t(q, k, 1);
    std::vector<std::uint32_t> coeffs(static_cast<std::size_t>(k) + 1);
    for (auto& c : coeffs) c = static_cast<std::uint32_t>(rng() % q);
    t.set_coeffs(0, coeffs);
    for (int j = 0; j < 16; ++j) {
      const auto x = static_cast<std::uint32_t>(rng() % q);
      ASSERT_EQ(t.eval(0, x), naive_eval(coeffs, q, x)) << "q=" << q << " k=" << k;
    }
  }
}

TEST(PolyTable, BarrettEdgeCases) {
  // Largest q: every coefficient and x at q-1 makes every Horner step's
  // acc*x + c = (q-1)^2 + (q-1), the largest intermediate.
  const std::uint32_t big = (1u << 31) - 1;
  for (const int k : {0, 1, 5, PolyTable::kMaxCoeffs - 1}) {
    PolyTable t(big, k, 1);
    const std::vector<std::uint32_t> coeffs(static_cast<std::size_t>(k) + 1, big - 1);
    t.set_coeffs(0, coeffs);
    for (const std::uint32_t x : {0u, 1u, 2u, big - 2, big - 1}) {
      EXPECT_EQ(t.eval(0, x), naive_eval(coeffs, big, x)) << "k=" << k << " x=" << x;
    }
  }
  // q = 2: every polynomial over GF(2) of degree <= 3, at both points.
  PolyTable two(2, 3, 16);
  for (std::uint64_t v = 0; v < 16; ++v) {
    two.set_value(v, v);
    for (std::uint32_t x = 0; x < 2; ++x) {
      EXPECT_EQ(two.eval(v, x), naive_eval(digits(two, v), 2, x)) << v;
    }
  }
  // k = 0: constant polynomials, whose value is the color itself.
  PolyTable constant(101, 0, 101);
  for (std::uint64_t v = 0; v < 101; ++v) {
    constant.set_value(v, v);
    for (std::uint32_t x = 0; x < 101; x += 25) EXPECT_EQ(constant.eval(v, x), v);
  }
}

TEST(PolyTable, FirstGoodPointMatchesScan) {
  // The selection rule spelled out: scan from value mod q, first point where
  // no other row agrees, emit x*q + p(x).  Neighbor counts straddle the
  // 4-chain blocks of the interleaved evaluation.
  std::mt19937_64 rng(7);
  const std::uint32_t q = 61;
  const int k = 2;
  PolyTable t(q, k, 40);
  std::vector<std::uint64_t> values(40);
  for (std::size_t s = 0; s < 40; ++s) {
    values[s] = s * 5407 + 3;  // distinct, < 61^3
    t.set_value(s, values[s]);
  }
  for (std::size_t n = 0; n <= 9; ++n) {
    std::vector<std::uint32_t> others;
    for (std::size_t j = 0; j < n; ++j) {
      others.push_back(static_cast<std::uint32_t>(1 + rng() % 39));
    }
    std::uint64_t expect = PolyTable::kNoGoodPoint;
    for (std::uint32_t step = 0; step < q && expect == PolyTable::kNoGoodPoint; ++step) {
      const auto x = static_cast<std::uint32_t>((values[0] % q + step) % q);
      bool good = true;
      for (const std::uint32_t o : others) good = good && t.eval(o, x) != t.eval(0, x);
      if (good) expect = static_cast<std::uint64_t>(x) * q + t.eval(0, x);
    }
    EXPECT_EQ(t.first_good_point(0, others), expect) << "n=" << n;
  }
  // A row that every point collides with (itself) leaves no good point.
  EXPECT_EQ(t.first_good_point(3, std::vector<std::uint32_t>{1, 2, 3}), PolyTable::kNoGoodPoint);
}

}  // namespace
}  // namespace qplec
