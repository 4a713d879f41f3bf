/* SHA-256 block kernel on the x86-64 SHA extensions (SHA-NI), and the
   cpuid probe that says whether this CPU has them.

   The kernel is compiled for the extensions with a per-function target
   attribute, not -march, so the library still runs on any x86-64: Sha256
   calls it only when the probe says the CPU has SHA, SSSE3 and SSE4.1.
   Other targets compile only the probe, which answers false.

   Both externals are [@@noalloc]: they take and return immediates, write
   only immediates into the chaining-state array, and never raise. The
   caller checks the block range before the call. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__)

#include <cpuid.h>
#include <immintrin.h>

value dagrider_sha256_ni_available(value unit)
{
  unsigned int a, b, c, d;
  int ssse3, sse41, sha;
  (void)unit;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return Val_false;
  ssse3 = (c & bit_SSSE3) != 0;
  sse41 = (c & bit_SSE4_1) != 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return Val_false;
  sha = (b & bit_SHA) != 0;
  return Val_bool(ssse3 && sse41 && sha);
}

static const uint32_t k[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

/* Four rounds: message words [m] (already scheduled) plus the round
   constants from [k + 4*i]. sha256rnds2 runs two rounds on the low half
   of its third operand; the shuffle brings the high half down. */
#define ROUNDS4(m, i)                                                   \
  do {                                                                  \
    __m128i wk = _mm_add_epi32(                                         \
        (m), _mm_loadu_si128((const __m128i *)(k + 4 * (i))));          \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);                       \
    abef = _mm_sha256rnds2_epu32(abef, cdgh,                            \
                                 _mm_shuffle_epi32(wk, 0x0E));          \
  } while (0)

/* Next four schedule words from the previous sixteen, held in
   [w0..w3] oldest first: W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]).
   The result replaces [w0], the oldest. */
#define SCHEDULE(w0, w1, w2, w3)                                        \
  (w0) = _mm_sha256msg2_epu32(                                          \
      _mm_add_epi32(_mm_sha256msg1_epu32((w0), (w1)),                   \
                    _mm_alignr_epi8((w3), (w2), 4)),                    \
      (w3))

__attribute__((target("sha,sse4.1,ssse3")))
static void compress_ni(uint32_t st[8], const uint8_t *p, intnat nblocks)
{
  /* big-endian words from the block's bytes */
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  /* the instructions keep the state as ABEF and CDGH */
  __m128i dcba = _mm_loadu_si128((const __m128i *)st);
  __m128i hgfe = _mm_loadu_si128((const __m128i *)(st + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; nblocks > 0; nblocks--, p += 64) {
    __m128i abef0 = abef, cdgh0 = cdgh;
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)p), bswap);
    __m128i w1 =
        _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i w2 =
        _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i w3 =
        _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    ROUNDS4(w0, 0);
    ROUNDS4(w1, 1);
    ROUNDS4(w2, 2);
    ROUNDS4(w3, 3);
    for (int i = 4; i < 16; i += 4) {
      SCHEDULE(w0, w1, w2, w3);
      ROUNDS4(w0, i);
      SCHEDULE(w1, w2, w3, w0);
      ROUNDS4(w1, i + 1);
      SCHEDULE(w2, w3, w0, w1);
      ROUNDS4(w2, i + 2);
      SCHEDULE(w3, w0, w1, w2);
      ROUNDS4(w3, i + 3);
    }
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }
  /* back from ABEF/CDGH to A..H */
  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128((__m128i *)st, _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128((__m128i *)(st + 4), _mm_alignr_epi8(dchg, feba, 8));
}

/* [compress_blocks h src off nblocks]: [h] is the OCaml int array of the
   eight chaining words; [src] holds [nblocks] whole blocks from [off]. */
value dagrider_sha256_ni_compress_blocks(value h, value src, value off,
                                          value nblocks)
{
  uint32_t st[8];
  for (int i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(h, i));
  compress_ni(st, Bytes_val(src) + Long_val(off), Long_val(nblocks));
  for (int i = 0; i < 8; i++) Field(h, i) = Val_long(st[i]);
  return Val_unit;
}

#else

#include <stdlib.h>

value dagrider_sha256_ni_available(value unit)
{
  (void)unit;
  return Val_false;
}

/* Unreachable: Sha256 calls the kernel only when the probe says yes. */
value dagrider_sha256_ni_compress_blocks(value h, value src, value off,
                                          value nblocks)
{
  (void)h; (void)src; (void)off; (void)nblocks;
  abort();
}

#endif
