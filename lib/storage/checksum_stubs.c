/* CRC-32 (reflected IEEE polynomial 0xEDB88320) over whole 16-byte blocks
   with carry-less multiplication.

   The method is the fold-by-4 scheme of Gopal et al., "Fast CRC Computation
   for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009): four
   128-bit accumulators are folded forward 64 bytes at a time, merged into
   one, folded 16 bytes at a time, then reduced from 128 to 32 bits and
   finished with a Barrett reduction.  The constants are the bit-reflected
   ones from the paper's appendix for this polynomial (the same values zlib-ng
   and Chromium use).

   The caller (checksum.ml) checks bounds, passes the pre-conditioned CRC
   state (the running CRC xor 0xffffffff) and a length that is a multiple of
   16 and at least 64, and finishes any tail itself.  Nothing here allocates,
   raises or keeps mutable state, so the stub is [@@noalloc] and safe to call
   from any domain. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define RW_CRC_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

#ifdef RW_CRC_X86

/* x^(4*128+32) mod P and x^(4*128-32) mod P: fold one lane 64 bytes on. */
static const uint64_t k_fold4[2] __attribute__((aligned(16))) = {0x0154442bd4ULL,
                                                                 0x01c6e41596ULL};
/* x^(128+32) mod P and x^(128-32) mod P: fold one lane 16 bytes on. */
static const uint64_t k_fold1[2] __attribute__((aligned(16))) = {0x01751997d0ULL,
                                                                 0x00ccaa009eULL};
/* x^64 mod P: reduce 96 bits to 64. */
static const uint64_t k_fold64[2] __attribute__((aligned(16))) = {0x0163cd6124ULL, 0};
/* P' (the polynomial, reflected, with x^32) and mu = floor(x^64 / P). */
static const uint64_t k_barrett[2] __attribute__((aligned(16))) = {0x01db710641ULL,
                                                                   0x01f7011641ULL};

__attribute__((target("pclmul,sse4.1"))) static inline __m128i
fold16(__m128i acc, __m128i k, __m128i data)
{
  __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), data);
}

__attribute__((target("pclmul,sse4.1"))) static uint32_t
crc_fold(const uint8_t *p, intnat len, uint32_t state)
{
  __m128i k = _mm_load_si128((const __m128i *)k_fold4);
  __m128i x0 = _mm_loadu_si128((const __m128i *)(p + 0));
  __m128i x1 = _mm_loadu_si128((const __m128i *)(p + 16));
  __m128i x2 = _mm_loadu_si128((const __m128i *)(p + 32));
  __m128i x3 = _mm_loadu_si128((const __m128i *)(p + 48));
  x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128((int)state));
  p += 64;
  len -= 64;

  for (; len >= 64; p += 64, len -= 64) {
    x0 = fold16(x0, k, _mm_loadu_si128((const __m128i *)(p + 0)));
    x1 = fold16(x1, k, _mm_loadu_si128((const __m128i *)(p + 16)));
    x2 = fold16(x2, k, _mm_loadu_si128((const __m128i *)(p + 32)));
    x3 = fold16(x3, k, _mm_loadu_si128((const __m128i *)(p + 48)));
  }

  /* Merge the four lanes, then take any remaining 16-byte blocks. */
  k = _mm_load_si128((const __m128i *)k_fold1);
  x0 = fold16(x0, k, x1);
  x0 = fold16(x0, k, x2);
  x0 = fold16(x0, k, x3);
  for (; len >= 16; p += 16, len -= 16)
    x0 = fold16(x0, k, _mm_loadu_si128((const __m128i *)p));

  /* 128 -> 96 -> 64 bits. */
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i t = _mm_clmulepi64_si128(x0, k, 0x10);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), t);
  k = _mm_loadl_epi64((const __m128i *)k_fold64);
  t = _mm_srli_si128(x0, 4);
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k, 0x00);
  x0 = _mm_xor_si128(x0, t);

  /* Barrett reduction to the 32-bit remainder. */
  k = _mm_load_si128((const __m128i *)k_barrett);
  t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), k, 0x00);
  x0 = _mm_xor_si128(x0, t);
  return (uint32_t)_mm_extract_epi32(x0, 1);
}

static int hw_available(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  return (c & bit_PCLMUL) != 0 && (c & bit_SSE4_1) != 0;
}

#else

static uint32_t crc_fold(const uint8_t *p, intnat len, uint32_t state)
{
  (void)p;
  (void)len;
  return state;
}

static int hw_available(void) { return 0; }

#endif

/* Native entry points: unboxed, untagged arguments and result. */

intnat rw_crc32_fold(value buf, intnat pos, intnat len, intnat state)
{
  return (intnat)crc_fold((const uint8_t *)Bytes_val(buf) + pos, len, (uint32_t)state);
}

value rw_crc32_hw_available(value unit)
{
  (void)unit;
  return Val_bool(hw_available());
}

/* Bytecode entry point. */

value rw_crc32_fold_byte(value buf, value pos, value len, value state)
{
  return Val_long(rw_crc32_fold(buf, Long_val(pos), Long_val(len), Long_val(state)));
}
