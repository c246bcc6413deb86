// The fixed-seed chaos corpus, shared by the suites that replay it
// (tests/test_chaos.cpp, tests/test_mem.cpp, tests/test_shard_brain.cpp):
// per-seed options, the SOFTCELL_CHAOS_SEEDS trim, the golden event digest
// of every seed, and the seed spread that the trimmed corpora still run.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <ios>

#include "chaos/harness.hpp"

namespace softcell::chaos {

// The corpus mixes configurations: most seeds run the default shape, a band
// routes the control plane through the concurrent runtime, and the tail
// disables mobility shortcuts (downlink forced through the BS-BS tunnels).
inline ChaosOptions corpus_options(std::uint64_t seed) {
  ChaosOptions opt;
  if (seed > 170 && seed <= 190) opt.runtime_workers = 2;
  if (seed > 190) opt.install_shortcuts = false;
  return opt;
}

// SOFTCELL_CHAOS_SEEDS shrinks the corpus for expensive reruns (tier1.sh
// uses it under ASan/TSan); unset means `fallback` seeds.
inline std::size_t corpus_size(std::size_t fallback) {
  if (const char* env = std::getenv("SOFTCELL_CHAOS_SEEDS")) {
    const auto n = std::strtoull(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return fallback;
}

// Golden event digests of the corpus: entry seed - 1 is run_scenario's
// digest for Scenario::generate(seed) under corpus_options(seed).  They
// were recorded while the legacy per-shard-clone brain and the node-map
// layout still ran beside the slab-backed ShardBrain, and all three gave
// these values, so the table stands in for both cross-mode differentials.
// They hold bit-identically in the default, ASan and TSan builds.  A change
// that alters behaviour on purpose replaces the entries its failures print
// and says why in CHANGES.md.
inline constexpr std::array<std::uint64_t, 200> kGoldenDigests = {
    /*   1 */ 0x80577e3bd58c1630, 0x0248ef97ef0c9209, 0xa7b2d61b0467af9c,
    /*   4 */ 0x51361dc600951148, 0xaeaa3df27a3ce698, 0x687b7cae8a71c647,
    /*   7 */ 0xfeda53fb0e765655, 0xe46bf796a52eca88, 0xdc1a5755f2dc9b17,
    /*  10 */ 0xde422c5bfef925c3, 0xad69469c1ece40e5, 0x32a1b06b6a796f35,
    /*  13 */ 0x5f2655ec57a271a2, 0x36fe049e7e573baf, 0x8e968a8194979089,
    /*  16 */ 0x5861f2425a7f2278, 0xad4898cd3574bab9, 0x941c35d592836cb9,
    /*  19 */ 0x9f6fce71eecad70d, 0xf43b5f9cc9343263, 0x4528933cd2d9ec68,
    /*  22 */ 0x499ecb58f7bf419d, 0xaf446b9811806d52, 0x11690c67eb057547,
    /*  25 */ 0x7e99842db98fa0ab, 0x894f578c003872b8, 0x3252164c8c80ae8b,
    /*  28 */ 0x654c5d11115522dd, 0x8be0aaf90e26d2d1, 0x699eb4cbb5d86ef6,
    /*  31 */ 0x2fe87113ac3d11ad, 0x3720aa6f166cff94, 0xab4b979e60b6d172,
    /*  34 */ 0x3a3c0e25d2febdfd, 0xbfd9d70f998ce618, 0x611ac864d4b21a3b,
    /*  37 */ 0x8af5cbc6b2c3dd60, 0xb243d6bf581efcbb, 0xbdc5d0b3b4e4db92,
    /*  40 */ 0x46341f9b412e2763, 0x8d60f33899d651a3, 0x4f2d9de80bb8129b,
    /*  43 */ 0xe11287f500592ee2, 0xa9b4732aca550e73, 0x2db74ef340fdad8b,
    /*  46 */ 0x9c92de662d430933, 0x739305798e0e23e9, 0x24c92b2897412653,
    /*  49 */ 0x14918c9c3ea40049, 0xd84f3fdfea633080, 0xd39b9eef30447336,
    /*  52 */ 0x3b1fcb8d2ea7849c, 0x3ba9a75ea12690c7, 0x47c584b1dc3b3b35,
    /*  55 */ 0x51613fb38ef514e3, 0x6c9f85131c2cf06b, 0x06e88d05798815a5,
    /*  58 */ 0x5b0634b60ae49c56, 0x4b88444f4c2de384, 0x37e3c53c1d32a695,
    /*  61 */ 0x6b8636b48c3b8578, 0x9a724e77e3840c90, 0x1c9cd54549f446da,
    /*  64 */ 0x73c13d947f8ef136, 0xa4eb6718a905d783, 0x4ae20d309df101ff,
    /*  67 */ 0xec9c9b55dc7938ad, 0xf979928c150e53fb, 0xa2e9078126a7cf6c,
    /*  70 */ 0x206be31edbbf123d, 0x1a5141eb87d3c35d, 0xc55b55aa87bbe3ac,
    /*  73 */ 0x73fac6d7e28bbb68, 0x32b16f4caf73b280, 0x5d6555113c920241,
    /*  76 */ 0x5d91940967b0501b, 0xaac14c976646496b, 0x6ba62b4a005727f0,
    /*  79 */ 0x1641cbbcf5434df8, 0x0e0c68755187657a, 0x7a764a4261a235b6,
    /*  82 */ 0x68093700dd7447bb, 0xb0dbcaddabd5d042, 0x8f3f7f112b15a25d,
    /*  85 */ 0x14fdbbde5a20ebc1, 0xd60645771f888f0b, 0xf1a204b55fefaa20,
    /*  88 */ 0xbd95fdebe1269c66, 0x6834b148862b588e, 0xe5cd2e0ff8da57df,
    /*  91 */ 0x7dd34702f13018e3, 0xee7808a11b3b67c5, 0x8787608c65091976,
    /*  94 */ 0x6144d460179daa8d, 0x7acd97cbaeeb8f99, 0x59e7f389cf1fcd6c,
    /*  97 */ 0x2a93583bb0d7d4b7, 0xe68677b5ae4bb16f, 0xac64d703cc318607,
    /* 100 */ 0x2251293425d8ad8d, 0x2db11f4dd2b76b6a, 0x42d1943ad14f8517,
    /* 103 */ 0x7425460e56e32fb0, 0x15cc34722e9026dc, 0x24793d69011a4bda,
    /* 106 */ 0x66bcb16ed2c9517b, 0xd920fedee8ff22e4, 0x33af59afdf0302e1,
    /* 109 */ 0xd746e0432408bced, 0x103b9ff88f66b61e, 0x84938714260463c9,
    /* 112 */ 0x214a0e6ddfe49cc7, 0xe33a5c24c48a9c6a, 0x8af52a915fa9743b,
    /* 115 */ 0x94e3aa05663ee0de, 0xd89edaa7a819620a, 0x4556711580da4b96,
    /* 118 */ 0xbb85972577b3b948, 0x657daa47f033cbaf, 0x8532241f4598d9c5,
    /* 121 */ 0xf5d243403feafc42, 0x030c221dc796494d, 0x6a7f000e528aa6e7,
    /* 124 */ 0x13ecb33e79a7f989, 0x8637d239f8a3fea6, 0x473859b9d173569a,
    /* 127 */ 0xd3ff2ea42dadafdd, 0x93013cf5b075ae78, 0x2d2100ff3d785b30,
    /* 130 */ 0x21f07a32d67eca84, 0xaf1773909ae30e5d, 0xbb0c3e9ad7fe7bea,
    /* 133 */ 0xee1b1b65e037cd1b, 0x524992655a498d61, 0x7cd6fef37948d1d3,
    /* 136 */ 0x4ffb78d69de76d34, 0x0cb3e9e3b78f290f, 0x8f90f9c0367d70fa,
    /* 139 */ 0x984d409865b7b8f7, 0xe9ad85f215bac620, 0xf4fd9646ca398789,
    /* 142 */ 0xc89efaf582bc87b6, 0x7ce32e83d383634b, 0x12cbebb6623ab049,
    /* 145 */ 0x381459b82a92a25a, 0x9aaa3db24bafbdf4, 0x9e6193a4e180eb31,
    /* 148 */ 0xa74572ace099422e, 0x217f9124273d5965, 0xce54d9c744a97313,
    /* 151 */ 0xba4a026dab05b3e6, 0x0205a0ebd4b2b554, 0x245a297c5c5d3ebe,
    /* 154 */ 0x6a48271eed782e69, 0xd93ec51e7eb02d2b, 0x260e9597d164fec8,
    /* 157 */ 0x70127a92ce66a688, 0x6da43a9d4ad7dfbb, 0xe13b5af5f049654a,
    /* 160 */ 0x5640643e9281fedc, 0xaa7f27fbe3421eab, 0x3a893b554f1125af,
    /* 163 */ 0x73dc18de6e7f4278, 0x72fcb25da45337d0, 0x8fff09e7fa97c920,
    /* 166 */ 0xcb74b10add39bb56, 0x01c0e5572b9f91ca, 0xdeb8ce6c8ce9b984,
    /* 169 */ 0xacbaf19ab5de3196, 0x415704f834774678, 0xa331f90e81794d71,
    /* 172 */ 0x8a48a0528bd2f54f, 0x2f844b0cabc79e4c, 0x8331e132e6f83349,
    /* 175 */ 0x69e9c47922f2f736, 0x5afae30bb569ac4f, 0x51c5ed9a885d5931,
    /* 178 */ 0x420f98ce2be458e7, 0x8a837ba1c5634edb, 0xc1244191749900bc,
    /* 181 */ 0xf9e858102798fd6b, 0x446e7336fa985e47, 0xc96733f722daeac6,
    /* 184 */ 0x0dc3aa24aba87955, 0xfda369f82ab0b52c, 0xaee3fb4a6f6f2965,
    /* 187 */ 0x2a2da211ce78f151, 0x9d3fb365470d2ce3, 0xda7fef5c9e0c5af1,
    /* 190 */ 0x9cbfa4d27ac35ebf, 0xb3af33715cb3d6a6, 0x04e9d86bbb1e298c,
    /* 193 */ 0x7a6a9529221e5262, 0x632be96c54fb0ff2, 0x1279414b3a803985,
    /* 196 */ 0x85a7d409bd368daa, 0x293db30dc7bb6fdf, 0x0910a1a0f67992e3,
    /* 199 */ 0xe01f82c8796daadd, 0x49551bcbb04fb3f7,
};

// Checks one seed's digest against the table (seeds past it are unchecked).
inline void expect_golden_digest(std::uint64_t seed, std::uint64_t digest) {
  if (seed > kGoldenDigests.size()) return;
  EXPECT_EQ(digest, kGoldenDigests[seed - 1])
      << "seed " << seed << ": digest 0x" << std::hex << digest << std::dec
      << " differs from the golden table";
}

// The trimmed sanitizer corpora (25 or 40 seeds) reach only the first
// seeds of the corpus; this spread, 1 + i * 199 / (n - 1) for
// i < corpus_size(25), still reaches the runtime-worker band (171-190) and
// the no-shortcut band (191-200).  Every seed must run clean and land on
// its golden digest.
inline void expect_spread_matches_golden_digests() {
  const std::size_t n = corpus_size(25);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seed = 1 + (i * 199) / (n > 1 ? n - 1 : 1);
    const auto r = run_scenario(Scenario::generate(seed), corpus_options(seed));
    ASSERT_TRUE(r.ok) << "seed " << seed;
    expect_golden_digest(seed, r.digest);
  }
}

}  // namespace softcell::chaos
