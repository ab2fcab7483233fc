/// Cross-checks the soft-float implementation against the host compiler's
/// native _Float16 arithmetic (x86-64 AVX512-FP16 or soft-fp lowering), when
/// available. Native _Float16 follows IEEE binary16 with RNE, which is
/// exactly our default configuration.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fp16/float16.hpp"
#include "fp16/fma_batch.hpp"

namespace redmule::fp16 {
namespace {

#if defined(__FLT16_MAX__)
using NativeF16 = _Float16;

uint16_t native_bits(NativeF16 v) {
  uint16_t b;
  static_assert(sizeof(v) == 2);
  __builtin_memcpy(&b, &v, 2);
  return b;
}

NativeF16 native_from_bits(uint16_t b) {
  NativeF16 v;
  __builtin_memcpy(&v, &b, 2);
  return v;
}

bool both_nan(uint16_t a, uint16_t b) {
  auto is_nan = [](uint16_t x) { return (x & 0x7C00) == 0x7C00 && (x & 0x3FF) != 0; };
  return is_nan(a) && is_nan(b);
}

TEST(Fp16Native, ExhaustiveConversionToFloat) {
  for (uint32_t b = 0; b <= 0xFFFF; ++b) {
    const Float16 f = Float16::from_bits(static_cast<uint16_t>(b));
    const float ours = f.to_float();
    const float native = static_cast<float>(native_from_bits(static_cast<uint16_t>(b)));
    if (f.is_nan()) {
      EXPECT_TRUE(std::isnan(native));
    } else {
      EXPECT_EQ(ours, native) << std::hex << b;
    }
  }
}

TEST(Fp16Native, ExhaustiveConversionFromFloatSamples) {
  Xoshiro256 rng(42);
  for (int i = 0; i < 500000; ++i) {
    // Random float32 patterns biased toward the fp16 range.
    uint32_t bits = static_cast<uint32_t>(rng.next_u64());
    float x;
    __builtin_memcpy(&x, &bits, 4);
    if (std::isnan(x)) continue;
    const uint16_t ours = Float16::from_float(x).bits();
    const uint16_t native = native_bits(static_cast<NativeF16>(x));
    if (both_nan(ours, native)) continue;
    EXPECT_EQ(ours, native) << "float bits 0x" << std::hex << bits;
  }
}

TEST(Fp16Native, RandomizedAdd) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 500000; ++i) {
    const uint16_t a = rng.next_u16(), b = rng.next_u16();
    const uint16_t ours = Float16::add(Float16::from_bits(a), Float16::from_bits(b)).bits();
    const uint16_t native = native_bits(native_from_bits(a) + native_from_bits(b));
    if (both_nan(ours, native)) continue;
    ASSERT_EQ(ours, native) << std::hex << "a=0x" << a << " b=0x" << b;
  }
}

TEST(Fp16Native, RandomizedMul) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 500000; ++i) {
    const uint16_t a = rng.next_u16(), b = rng.next_u16();
    const uint16_t ours = Float16::mul(Float16::from_bits(a), Float16::from_bits(b)).bits();
    const uint16_t native = native_bits(native_from_bits(a) * native_from_bits(b));
    if (both_nan(ours, native)) continue;
    ASSERT_EQ(ours, native) << std::hex << "a=0x" << a << " b=0x" << b;
  }
}

TEST(Fp16Native, RandomizedDiv) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 300000; ++i) {
    const uint16_t a = rng.next_u16(), b = rng.next_u16();
    const uint16_t ours = Float16::div(Float16::from_bits(a), Float16::from_bits(b)).bits();
    const uint16_t native = native_bits(native_from_bits(a) / native_from_bits(b));
    if (both_nan(ours, native)) continue;
    ASSERT_EQ(ours, native) << std::hex << "a=0x" << a << " b=0x" << b;
  }
}

TEST(Fp16Native, SubnormalOperands) {
  // Directed sweep over subnormal x subnormal and subnormal x normal edges.
  for (uint32_t a = 0; a <= 0x3FF; a += 7) {
    for (uint32_t b = 0x8000; b <= 0x83FF; b += 13) {
      const uint16_t ua = static_cast<uint16_t>(a), ub = static_cast<uint16_t>(b);
      const uint16_t ours = Float16::add(Float16::from_bits(ua), Float16::from_bits(ub)).bits();
      const uint16_t native = native_bits(native_from_bits(ua) + native_from_bits(ub));
      ASSERT_EQ(ours, native) << std::hex << "a=0x" << a << " b=0x" << b;
    }
  }
}
#else
TEST(Fp16Native, Unavailable) {
  GTEST_SKIP() << "toolchain has no native _Float16; cross-check skipped";
}
#endif

// ---------------------------------------------------------------------------
// Fast-path FMA vs soft-float core. Float16::fma() dispatches normal/RNE/
// flag-free operands to a native-arithmetic fast path; Float16::fma_soft()
// is the bit-exact oracle. These tests pin the dispatch contract: bit-equal
// results everywhere, identical flag behavior, correct fallback on every
// eligibility edge (subnormals, NaN/Inf, non-RNE, flag observers).
// ---------------------------------------------------------------------------

TEST(Fp16FastFma, FuzzRneBitExact) {
  // >= 10M uniform-random encoding triples under the dispatching entry point
  // (RNE, no flags): the configuration where the fast path actually engages.
  ASSERT_TRUE(fast_fma_enabled());
  Xoshiro256 rng(1234);
  for (int i = 0; i < 4'000'000; ++i) {
    const Float16 a = Float16::from_bits(rng.next_u16());
    const Float16 b = Float16::from_bits(rng.next_u16());
    const Float16 c = Float16::from_bits(rng.next_u16());
    const uint16_t fast = Float16::fma(a, b, c).bits();
    const uint16_t soft = Float16::fma_soft(a, b, c).bits();
    ASSERT_EQ(fast, soft) << std::hex << "a=0x" << a.bits() << " b=0x" << b.bits()
                          << " c=0x" << c.bits();
  }
}

TEST(Fp16FastFma, FuzzRneNormalBiasedBitExact) {
  // Uniform encodings make ~94% of triples all-normal but most products
  // over/underflow. Bias exponents toward the middle so results land in the
  // normal range and the fast path's pack (not just its bail-out) is hit.
  ASSERT_TRUE(fast_fma_enabled());
  Xoshiro256 rng(5678);
  auto mid_normal = [&rng]() {
    const uint16_t sign = static_cast<uint16_t>((rng.next_u16() & 1u) << 15);
    const uint16_t e = static_cast<uint16_t>(8 + (rng.next_u16() % 15));  // 8..22
    const uint16_t frac = static_cast<uint16_t>(rng.next_u16() & 0x3FF);
    return Float16::from_bits(static_cast<uint16_t>(sign | (e << 10) | frac));
  };
  for (int i = 0; i < 6'000'000; ++i) {
    const Float16 a = mid_normal(), b = mid_normal(), c = mid_normal();
    const uint16_t fast = Float16::fma(a, b, c).bits();
    const uint16_t soft = Float16::fma_soft(a, b, c).bits();
    ASSERT_EQ(fast, soft) << std::hex << "a=0x" << a.bits() << " b=0x" << b.bits()
                          << " c=0x" << c.bits();
  }
}

TEST(Fp16FastFma, AllRoundingModesWithAndWithoutFlags) {
  // Non-RNE modes and flag observers must fall back to (and agree with) the
  // soft core, with identical flag behavior.
  Xoshiro256 rng(91);
  const RoundingMode modes[] = {RoundingMode::kRNE, RoundingMode::kRTZ,
                                RoundingMode::kRDN, RoundingMode::kRUP,
                                RoundingMode::kRMM};
  for (int i = 0; i < 400'000; ++i) {
    const Float16 a = Float16::from_bits(rng.next_u16());
    const Float16 b = Float16::from_bits(rng.next_u16());
    const Float16 c = Float16::from_bits(rng.next_u16());
    for (const RoundingMode rm : modes) {
      Flags fl_fast, fl_soft;
      const uint16_t fast = Float16::fma(a, b, c, rm, &fl_fast).bits();
      const uint16_t soft = Float16::fma_soft(a, b, c, rm, &fl_soft).bits();
      ASSERT_EQ(fast, soft) << std::hex << "rm=" << static_cast<int>(rm) << " a=0x"
                            << a.bits() << " b=0x" << b.bits() << " c=0x" << c.bits();
      ASSERT_EQ(fl_fast.to_fflags(), fl_soft.to_fflags())
          << std::hex << "rm=" << static_cast<int>(rm) << " a=0x" << a.bits()
          << " b=0x" << b.bits() << " c=0x" << c.bits();
      const uint16_t fast_nf = Float16::fma(a, b, c, rm).bits();
      ASSERT_EQ(fast_nf, soft) << std::hex << "rm=" << static_cast<int>(rm) << " a=0x"
                               << a.bits() << " b=0x" << b.bits() << " c=0x"
                               << c.bits();
    }
  }
}

TEST(Fp16FastFma, DirectedEligibilityEdges) {
  // Sweep the boundary encodings where the fast path must either engage and
  // round identically or detect ineligibility: around the subnormal/normal
  // border, max normal (overflow bail), min normal (underflow bail), zeros,
  // infinities and NaNs, plus exact cancellations (v == 0).
  const uint16_t interesting[] = {
      0x0000, 0x8000,          // +-0
      0x0001, 0x8001,          // min subnormal
      0x03FF, 0x83FF,          // max subnormal
      0x0400, 0x8400,          // min normal
      0x0401, 0x8401,          // just above min normal
      0x3BFF, 0x3C00, 0x3C01,  // around 1.0
      0x7BFF, 0xFBFF,          // max normal
      0x7BFE, 0x7800,          // near max normal
      0x7C00, 0xFC00,          // +-inf
      0x7E00, 0x7D55, 0x7C01,  // quiet and signaling NaNs
      0x0402, 0x1400, 0x2E66,  // assorted normals
  };
  for (const uint16_t ab : interesting)
    for (const uint16_t bb : interesting)
      for (const uint16_t cb : interesting) {
        const Float16 a = Float16::from_bits(ab);
        const Float16 b = Float16::from_bits(bb);
        const Float16 c = Float16::from_bits(cb);
        const uint16_t fast = Float16::fma(a, b, c).bits();
        const uint16_t soft = Float16::fma_soft(a, b, c).bits();
        ASSERT_EQ(fast, soft) << std::hex << "a=0x" << ab << " b=0x" << bb << " c=0x"
                              << cb;
      }
  // The fast path takes exact zeros itself instead of deferring them to the
  // soft core (padded lanes produce them constantly), keeping their sign.
  uint16_t zbits = 0xFFFF;
  double zimage = 1.0;
  EXPECT_TRUE(detail::fast_pack_rne(0.0, &zbits, &zimage));
  EXPECT_EQ(zbits, 0x0000);
  EXPECT_EQ(zimage, 0.0);
  EXPECT_FALSE(std::signbit(zimage));
  EXPECT_TRUE(detail::fast_pack_rne(-0.0, &zbits, &zimage));
  EXPECT_EQ(zbits, 0x8000);
  EXPECT_TRUE(std::signbit(zimage));
  // Exact cancellation a*b == -c: the binary64 sum is exactly +0.0, which
  // the fast path returns itself (RNE result is +0, as in the soft core).
  const Float16 one = Float16::from_bits(0x3C00);
  const Float16 two = Float16::from_bits(0x4000);
  const Float16 neg_two = Float16::from_bits(0xC000);
  EXPECT_EQ(Float16::fma(one, two, neg_two).bits(), 0x0000);
  EXPECT_EQ(Float16::fma(one.neg(), two, two).bits(), 0x0000);
  EXPECT_EQ(Float16::fma(one, two, neg_two).bits(),
            Float16::fma_soft(one, two, neg_two).bits());
  // Exact cancellations across the exponent range: products of short
  // significands are exact in fp16, so c = -(a*b) cancels to +0.
  Xoshiro256 rng(77);
  for (int i = 0; i < 200'000; ++i) {
    const uint16_t ea = static_cast<uint16_t>(9 + rng.next_u16() % 13);
    const uint16_t eb = static_cast<uint16_t>(9 + rng.next_u16() % 13);
    const Float16 a = Float16::from_bits(static_cast<uint16_t>(
        ((rng.next_u16() & 1u) << 15) | (ea << 10) | ((rng.next_u16() & 0x1Fu) << 5)));
    const Float16 b = Float16::from_bits(static_cast<uint16_t>(
        ((rng.next_u16() & 1u) << 15) | (eb << 10) | ((rng.next_u16() & 0x1Fu) << 5)));
    Flags fl;
    const Float16 p = Float16::mul(a, b, RoundingMode::kRNE, &fl);
    if (fl.inexact || !p.is_normal()) continue;
    const Float16 c = p.neg();
    ASSERT_EQ(Float16::fma(a, b, c).bits(), 0x0000)
        << std::hex << a.bits() << " " << b.bits();
    ASSERT_EQ(Float16::fma_soft(a, b, c).bits(), 0x0000);
  }
  // Signed zeros: a zero product plus a zero addend keeps the sign only when
  // both zeros are negative; a zero product plus a nonzero addend is the
  // addend itself.
  const uint16_t zero_cases[][4] = {
      // a, b, c, expected
      {0x0000, 0x3C00, 0x0000, 0x0000}, {0x8000, 0x3C00, 0x8000, 0x8000},
      {0x8000, 0x3C00, 0x0000, 0x0000}, {0x0000, 0x3C00, 0x8000, 0x0000},
      {0x8000, 0xBC00, 0x8000, 0x0000}, {0x0000, 0xBC00, 0x8000, 0x8000},
      {0x0000, 0x7BFF, 0x8000, 0x0000}, {0x8000, 0x0400, 0x8000, 0x8000},
      {0x0000, 0x3C00, 0xC000, 0xC000}, {0x8000, 0x0000, 0x0000, 0x0000},
      {0x8000, 0x8000, 0x8000, 0x0000}, {0x8000, 0x0000, 0x8000, 0x8000},
  };
  for (const auto& zc : zero_cases) {
    const Float16 a = Float16::from_bits(zc[0]);
    const Float16 b = Float16::from_bits(zc[1]);
    const Float16 c = Float16::from_bits(zc[2]);
    EXPECT_EQ(Float16::fma(a, b, c).bits(), zc[3])
        << std::hex << "a=0x" << zc[0] << " b=0x" << zc[1] << " c=0x" << zc[2];
    EXPECT_EQ(Float16::fma_soft(a, b, c).bits(), zc[3])
        << std::hex << "a=0x" << zc[0] << " b=0x" << zc[1] << " c=0x" << zc[2];
  }
}

TEST(Fp16FastFma, KillSwitchForcesSoftCore) {
  // The bench kill switch must route every call through the soft core.
  set_fast_fma_enabled(false);
  EXPECT_FALSE(fast_fma_enabled());
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const Float16 a = Float16::from_bits(rng.next_u16());
    const Float16 b = Float16::from_bits(rng.next_u16());
    const Float16 c = Float16::from_bits(rng.next_u16());
    ASSERT_EQ(Float16::fma(a, b, c).bits(), Float16::fma_soft(a, b, c).bits());
  }
  set_fast_fma_enabled(true);
  EXPECT_TRUE(fast_fma_enabled());
}

// ---------------------------------------------------------------------------
// Whole-array kernel vs scalar fast path vs soft core. Each implementation
// sits behind one callable that computes a batch of rows, z[i][r] =
// fma(x[i][r], w[i], acc[i][r]); the harness feeds every implementation the
// same batch and compares the results bit for bit.
// ---------------------------------------------------------------------------

/// A batch of rows in plain FP16 form (row-major, `lanes` per row).
struct RowBatch {
  unsigned lanes = 0;
  std::vector<Float16> x, acc;  ///< rows * lanes
  std::vector<Float16> w;       ///< one per row
  unsigned rows() const { return static_cast<unsigned>(w.size()); }
};

using RowFma = std::function<std::vector<Float16>(const RowBatch&)>;

struct RowFmaImpl {
  std::string name;
  RowFma run;
};

/// Per-lane scalar implementations (the soft core, the scalar fast path).
RowFma per_lane(Float16 (*fma)(Float16, Float16, Float16, RoundingMode, Flags*)) {
  return [fma](const RowBatch& b) {
    std::vector<Float16> z(b.x.size());
    for (unsigned i = 0; i < b.rows(); ++i)
      for (unsigned r = 0; r < b.lanes; ++r) {
        const size_t k = static_cast<size_t>(i) * b.lanes + r;
        z[k] = fma(b.x[k], b.w[i], b.acc[k], RoundingMode::kRNE, nullptr);
      }
    return z;
  };
}

/// The datapath's whole-array step (kernel + per-lane fallback) with the
/// given kernel.
RowFma batched(FmaBatchKernel kernel) {
  return [kernel](const RowBatch& b) {
    const size_t n = b.x.size();
    std::vector<double> x64(n), acc64(n), w64(n), out64(n);
    std::vector<Float16> out(n);
    std::vector<uint8_t> ok(n), active(b.rows(), 1), eligible(b.rows()), out_nz(b.rows());
    for (unsigned i = 0; i < b.rows(); ++i) {
      const size_t base = static_cast<size_t>(i) * b.lanes;
      eligible[i] = to_fma_operands(b.x.data() + base, b.lanes, x64.data() + base) &
                    to_fma_operands(b.acc.data() + base, b.lanes, acc64.data() + base) &
                    detail::is_normal_or_zero(b.w[i]);
    }
    FmaBatch fb;
    fb.rows = b.rows();
    fb.lanes = b.lanes;
    fb.x = b.x.data();
    fb.x64 = x64.data();
    fb.acc = b.acc.data();
    fb.acc64 = acc64.data();
    fb.w64 = w64.data();
    fb.out = out.data();
    fb.out64 = out64.data();
    fb.ok = ok.data();
    fb.w = b.w.data();
    fb.active = active.data();
    fb.eligible = eligible.data();
    fb.out_normal_or_zero = out_nz.data();
    fma_batch(kernel, fb);
    for (unsigned i = 0; i < b.rows(); ++i) {
      // The result row's eligibility flag and binary64 images are what the
      // next column consumes: they must describe the results exactly.
      bool nz = true;
      for (unsigned r = 0; r < b.lanes; ++r) {
        const size_t k = static_cast<size_t>(i) * b.lanes + r;
        nz &= detail::is_normal_or_zero(out[k]);
        if (detail::is_normal_or_zero(out[k]))
          EXPECT_EQ(out64[k], out[k].to_double()) << std::hex << out[k].bits();
      }
      EXPECT_EQ(out_nz[i] != 0, nz);
    }
    return out;
  };
}

std::vector<RowFmaImpl> row_fma_impls() {
  return {
      {"fma_soft", per_lane(&Float16::fma_soft)},
      {"scalar fast path", per_lane(&Float16::fma)},
      {"batch kernel", batched(&fma_batch_kernel)},
  };
}

/// Runs every implementation on \p b and asserts they all equal fma_soft.
void expect_all_agree(const RowBatch& b, const char* what) {
  const auto impls = row_fma_impls();
  const std::vector<Float16> ref = impls[0].run(b);
  for (size_t j = 1; j < impls.size(); ++j) {
    const std::vector<Float16> got = impls[j].run(b);
    for (size_t k = 0; k < ref.size(); ++k) {
      const size_t i = k / b.lanes;
      ASSERT_EQ(got[k].bits(), ref[k].bits())
          << what << ": " << impls[j].name << " row " << i << " lane " << k % b.lanes
          << std::hex << " x=0x" << b.x[k].bits() << " w=0x" << b.w[i].bits()
          << " acc=0x" << b.acc[k].bits();
    }
  }
}

Float16 mid_normal(Xoshiro256& rng) {
  const uint16_t sign = static_cast<uint16_t>((rng.next_u16() & 1u) << 15);
  const uint16_t e = static_cast<uint16_t>(8 + (rng.next_u16() % 15));  // 8..22
  const uint16_t frac = static_cast<uint16_t>(rng.next_u16() & 0x3FF);
  return Float16::from_bits(static_cast<uint16_t>(sign | (e << 10) | frac));
}

/// A raw encoding outside the normal range: subnormal, +-Inf, NaN or -0.
Float16 raw_special(Xoshiro256& rng) {
  const uint16_t sign = static_cast<uint16_t>((rng.next_u16() & 1u) << 15);
  auto enc = [sign](unsigned bits) {
    return Float16::from_bits(static_cast<uint16_t>(sign | bits));
  };
  switch (rng.next_u16() % 5) {
    case 0: return enc(1 + rng.next_u16() % 0x3FF);               // subnormal
    case 1: return enc(0x7C00);                                   // infinity
    case 2: return enc(0x7E00 | (rng.next_u16() & 0x1FF));        // quiet NaN
    case 3: return enc(0x7C01 | (rng.next_u16() & 0x1FE));        // signaling NaN
    default: return Float16::from_bits(Float16::kNegZero);
  }
}

RowBatch random_batch(Xoshiro256& rng, unsigned rows, unsigned lanes) {
  RowBatch b;
  b.lanes = lanes;
  // 1 in 16 operands is a raw special encoding.
  auto draw = [&rng]() {
    return rng.next_u16() % 16 == 0 ? raw_special(rng) : mid_normal(rng);
  };
  for (unsigned i = 0; i < rows; ++i) {
    b.w.push_back(draw());
    for (unsigned r = 0; r < lanes; ++r) {
      b.x.push_back(draw());
      b.acc.push_back(draw());
    }
  }
  return b;
}

TEST(Fp16BatchFma, RandomRowsWithSpecialLanes) {
  ASSERT_TRUE(fast_fma_enabled());
  Xoshiro256 rng(2024);
  const unsigned lane_counts[] = {1, 3, 4, 8, 16, 17, 33};
  for (int it = 0; it < 3000; ++it) {
    const unsigned lanes = lane_counts[it % 7];
    const unsigned rows = 1 + static_cast<unsigned>(rng.next_u16() % 8);
    expect_all_agree(random_batch(rng, rows, lanes), "random");
  }
}

TEST(Fp16BatchFma, KernelAcceptsWhatTheScalarPathAccepts) {
  // The kernel must not decline lanes the scalar fast path handles: on
  // normal-or-zero operands its ok flags match the scalar path's acceptance
  // lane for lane (a kernel that silently declined everything would still
  // pass the bit-equality checks through its fallback).
  Xoshiro256 rng(31);
  {
    size_t accepted = 0, total = 0;
    for (int it = 0; it < 20000; ++it) {
      const unsigned n = 1 + static_cast<unsigned>(rng.next_u16() % 40);
      std::vector<Float16> x(n), w(n), acc(n), out(n);
      std::vector<double> x64(n), w64(n), acc64(n), out64(n);
      std::vector<uint8_t> ok(n);
      for (unsigned r = 0; r < n; ++r) {
        x[r] = mid_normal(rng);
        w[r] = rng.next_u16() % 8 == 0 ? Float16{} : mid_normal(rng);
        acc[r] = rng.next_u16() % 4 == 0 ? Float16{} : mid_normal(rng);
      }
      ASSERT_TRUE(to_fma_operands(x.data(), n, x64.data()) &&
                  to_fma_operands(w.data(), n, w64.data()) &&
                  to_fma_operands(acc.data(), n, acc64.data()));
      const bool all_ok = fma_batch_kernel(FmaLanes{
          n, x64.data(), w64.data(), acc64.data(), out.data(), out64.data(), ok.data()});
      bool expect_all = true;
      for (unsigned r = 0; r < n; ++r) {
        uint16_t bits;
        double image;
        const bool scalar_ok =
            detail::fast_pack_rne(x64[r] * w64[r] + acc64[r], &bits, &image);
        expect_all &= scalar_ok;
        ASSERT_EQ(ok[r] != 0, scalar_ok)
            << std::hex << x[r].bits() << " " << w[r].bits() << " " << acc[r].bits();
        if (scalar_ok) {
          ASSERT_EQ(out[r].bits(), Float16::fma_soft(x[r], w[r], acc[r]).bits());
          ASSERT_EQ(out64[r], out[r].to_double());
          ++accepted;
        }
        ++total;
      }
      ASSERT_EQ(all_ok, expect_all);
    }
    EXPECT_GT(accepted, total * 9 / 10);
  }
}

TEST(Fp16BatchFma, DirectedRangeEdges) {
  // Rows built to land on every edge of the kernel's exactness window:
  // overflow (product and rounding), underflow into subnormals, a carry into
  // the next binade on rounding, exact cancellation and signed zeros.
  auto h = [](uint16_t b) { return Float16::from_bits(b); };
  RowBatch b;
  b.lanes = 6;
  auto add_row = [&](Float16 w, std::vector<Float16> x, std::vector<Float16> acc) {
    b.w.push_back(w);
    b.x.insert(b.x.end(), x.begin(), x.end());
    b.acc.insert(b.acc.end(), acc.begin(), acc.end());
  };
  // Overflow: 65504 * 2, 65504 + rounding up, and results just inside.
  add_row(h(0x4000), {h(0x7BFF), h(0x7BFF), h(0x7800), h(0x5BFF), h(0xFBFF), h(0x3C00)},
          {h(0x0000), h(0x8000), h(0xFBFF), h(0x6000), h(0x7BFF), h(0x7BFF)});
  add_row(h(0x3C00), {h(0x7BFF), h(0x7BFF), h(0x7BFE), h(0xFBFF), h(0x7BFF), h(0x0400)},
          {h(0x4FFF), h(0x5000), h(0x5000), h(0xD000), h(0x5400), h(0x7BFF)});
  // Underflow: products and sums below 2^-14, including results that round
  // up to the minimum normal from the subnormal range.
  add_row(h(0x1400), {h(0x0400), h(0x0401), h(0x07FF), h(0x13FF), h(0x8400), h(0x0800)},
          {h(0x0000), h(0x0400), h(0x8400), h(0x0001), h(0x0400), h(0x83FF)});
  add_row(h(0x3800), {h(0x0400), h(0x07FF), h(0x0401), h(0x0400), h(0x0800), h(0x0C00)},
          {h(0x0000), h(0x0000), h(0x8400), h(0x03FF), h(0x8400), h(0x8800)});
  // Carry into the next binade on rounding: 2047.x, 1.999x, and ties.
  add_row(h(0x3C00), {h(0x67FF), h(0x3BFF), h(0x3FFF), h(0x6800), h(0x4BFF), h(0x0401)},
          {h(0x3800), h(0x1000), h(0x1400), h(0x3C00), h(0x2C00), h(0x0001)});
  add_row(h(0x3C01), {h(0x3FFF), h(0x3BFF), h(0x7AFF), h(0x5BFF), h(0x3C00), h(0x3C01)},
          {h(0x1400), h(0x0000), h(0x5800), h(0x3C00), h(0x13FF), h(0xBC00)});
  // Exact cancellation and signed zeros.
  add_row(h(0x4000), {h(0x3C00), h(0xBC00), h(0x0000), h(0x8000), h(0x8000), h(0x3E00)},
          {h(0xC000), h(0x4000), h(0x8000), h(0x8000), h(0x0000), h(0xC200)});
  add_row(h(0x8000), {h(0x3C00), h(0x8000), h(0x7BFF), h(0x0000), h(0x3C00), h(0xBC00)},
          {h(0x8000), h(0x8000), h(0x0000), h(0x3C00), h(0x0000), h(0x8000)});
  expect_all_agree(b, "directed");
}

/// A kernel that claims every lane and writes garbage: any of its output
/// that survives into a result proves the kernel was used.
bool poison_kernel(const FmaLanes& v) {
  for (unsigned i = 0; i < v.n; ++i) {
    v.out[i] = Float16::from_bits(Float16::kQuietNaN);
    v.out64[i] = 0.0;
    v.ok[i] = 1;
  }
  return true;
}

TEST(Fp16BatchFma, KillSwitchRoutesEveryLaneToSoftCore) {
  // With the fast path off, the batch step must return fma_soft in every
  // lane -- the soft-float reference kernel the simulator benches --
  // without running the kernel at all (its bits would be identical, so a
  // poison kernel is what shows it was bypassed).
  set_fast_fma_enabled(false);
  Xoshiro256 rng(8);
  for (int it = 0; it < 500; ++it) expect_all_agree(random_batch(rng, 4, 8), "kill switch");
  const RowBatch b = random_batch(rng, 3, 8);
  const std::vector<Float16> ref = per_lane(&Float16::fma_soft)(b);
  const std::vector<Float16> got = batched(&poison_kernel)(b);
  for (size_t k = 0; k < ref.size(); ++k) ASSERT_EQ(got[k].bits(), ref[k].bits()) << k;
  set_fast_fma_enabled(true);
  EXPECT_TRUE(fast_fma_enabled());
}

}  // namespace
}  // namespace redmule::fp16
