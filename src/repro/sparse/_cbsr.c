/* The aggregation kernels as plain loops over a CSR adjacency: the dense
 * SpMM and the CBSR pair (MaxK-GNN §4.1 / §4.2), with the MaxK select
 * (§5.3) that feeds the pair and the pack / unpack between a dense row
 * and its CBSR block. Each aggregation walks the adjacency in CSR row
 * order and accumulates every output element one product at a time, in
 * stored-edge order, from zero — the reference backend's order, so the
 * bytes match it without FMA contraction or reassociation
 * (-ffp-contract=off, no -ffast-math). Only where two different NaNs meet
 * may the sign differ: which one an add returns is the compiler's operand
 * order, which IEEE 754 leaves open. Threads split the output rows so
 * each element is written by one thread: the same order at any thread
 * count. On x86 the SpMM, the float CBSR pair and the float select have
 * second bodies, built for AVX2 alone and chosen as the object loads on a
 * CPU that has it (`wide`); other CPUs and architectures run the portable
 * loops, and the select is numpy's. A vector body does the portable
 * loop's products and adds, each rounded alone, per element in the same
 * order; the select decides by compares alone, and the pack and unpack
 * copy bytes. Nothing is bounds-checked here; the Python dispatcher
 * validates every index these loops read. Outside the aggregation, both
 * portable and on the calling thread: a served window's adjacency rows
 * (window_rows_f / _d), copied out of the served graph's CSR rows and
 * renumbered, and last dropout's forward (dropout_f), numpy's PCG64
 * float32 draws and its compare and multiplies, built wherever the
 * compiler has a 128-bit integer. */
#include <stdint.h>
#include <string.h>

/* Below this many multiply-adds (nnz * dim, or nnz * k) a call stays on
 * the calling thread. 2-vCPU Xeon, gcc 12, float32, idle threads asleep
 * between calls. The SpMM's AVX2 strips at dim 64, 12 rounds of 41 calls
 * alternated within minutes, medians: at 2^20 two threads 0.21 ms against
 * one's 0.25 (faster in 8 of 12 rounds), at the 465 k-edge bench point
 * 4.8 against 6.8 ms (9 of 12); one thread under taskset -c 0, 0.20 and
 * 6.3 ms. The CBSR pair's AVX2 bodies at k 8, built with no threshold,
 * two runs of 8 rounds of 21 calls, one thread against two: the SpGEMM
 * gains from 2^16-2^17 (0.20 against 0.16 ms at 2^17, 7 of 8 rounds
 * twice), the owner-split SSpMM from 2^18-2^19 (0.50-0.52 against
 * 0.42-0.43 ms at 2^19, 7-8 of 8); at 2^20 two threads win every round
 * (SpGEMM 1.5 against 1.0 ms, SSpMM 1.0 against 0.73-0.83); under
 * taskset -c 0 one thread reads 1.2-1.5 and 0.76-1.08 ms there. One bound
 * for all three stays at 2^20: the pair gives up at most 0.5 ms per call
 * between its crossovers and it, the SpMM none. */
#define MIN_PARALLEL_WORK (INT64_C(1) << 20)
const int64_t min_parallel_work = MIN_PARALLEL_WORK;

/* One signature for every loop. `in` is x (n_src, dim) for the SpMM, which
 * reads no `col`; the (n_src, k) value block for the SpGEMM; the (n_rows,
 * dim) gradient for the SSpMM. */
#define ARGS(T, I)                                                           \
    int64_t n_rows, int64_t n_src, int64_t k, int64_t dim, int64_t threads, \
    const int64_t *restrict indptr, const int64_t *restrict indices,        \
    const T *restrict data, const T *restrict in, const I *restrict col,    \
    T *restrict out
#define PASS n_rows, n_src, k, dim, threads, indptr, indices, data, in, col, out

/* NAME runs ROWS over blocks [lo, hi) of its N output rows: all of them
 * on the calling thread below MIN_PARALLEL_WORK, else one contiguous block
 * per thread. ROWS is evaluated once per call. */
#define SPLIT(NAME, ROWS, T, I, N, WORK)                                     \
    void NAME(ARGS(T, I))                                                    \
    {                                                                        \
        void (*const rows)(int64_t, int64_t, ARGS(T, I)) = ROWS;             \
        const int64_t blocks = (WORK) >= MIN_PARALLEL_WORK ? threads : 1;   \
        if (blocks == 1) {                                                   \
            rows(0, N, PASS);                                                \
            return;                                                          \
        }                                                                    \
        _Pragma("omp parallel for schedule(static) num_threads(threads)")   \
        for (int64_t p = 0; p < blocks; p++)                                 \
            rows(N * p / blocks, N * (p + 1) / blocks, PASS);                \
    }

/* out (n_rows, dim) = A @ x, each row zeroed and accumulated in turn. */
#define SPMM_ROWS(NAME, T)                                                   \
    static void NAME(int64_t lo, int64_t hi, ARGS(T, uint8_t))               \
    {                                                                        \
        for (int64_t i = lo; i < hi; i++) {                                  \
            T *restrict row = out + i * dim;                                 \
            for (int64_t t = 0; t < dim; t++)                                \
                row[t] = 0;                                                  \
            for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {           \
                const T a = data[e], *restrict v = in + indices[e] * dim;   \
                for (int64_t t = 0; t < dim; t++)                            \
                    row[t] += a * v[t];                                      \
            }                                                                \
        }                                                                    \
    }

/* out (n_rows, dim): the row-wise-product SpGEMM, out[i, col[j, t]] +=
 * a_ij * in[j, t] into the dense dim-wide row i, zeroed first, survivors
 * FROM..k of each edge (a vector body does the first ones). */
#define SPGEMM_EDGE(FROM)                                                    \
    for (int64_t t = FROM; t < k; t++)                                       \
        row[c[t]] += a * v[t];
#define CBSR_SPGEMM_ROWS(NAME, T, I)                                         \
    static void NAME(int64_t lo, int64_t hi, ARGS(T, I))                     \
    {                                                                        \
        for (int64_t i = lo; i < hi; i++) {                                  \
            T *restrict row = out + i * dim;                                 \
            memset(row, 0, dim * sizeof(T));                                 \
            for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {           \
                const T a = data[e], *restrict v = in + indices[e] * k;     \
                const I *restrict c = col + indices[e] * k;                  \
                SPGEMM_EDGE(0)                                               \
            }                                                                \
        }                                                                    \
    }

/* out (n_src, k): the outer-product SSpMM, out[j, t] += a_ij * in[i,
 * col[j, t]], with no transpose of A. Its output rows are the adjacency's
 * columns, so a block zeroes the rows [lo, hi) it owns, then walks all of
 * A and takes only the edges whose column j it owns (the owner split). */
#define SSPMM_EDGE(FROM)                                                     \
    for (int64_t t = FROM; t < k; t++)                                       \
        o[t] += a * g[c[t]];
#define CBSR_SSPMM_ROWS(NAME, T, I, EDGE)                                    \
    static void NAME(int64_t lo, int64_t hi, ARGS(T, I))                     \
    {                                                                        \
        memset(out + lo * k, 0, (hi - lo) * k * sizeof(T));                  \
        for (int64_t i = 0; i < n_rows; i++) {                               \
            const T *restrict g = in + i * dim;                              \
            for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {           \
                const int64_t j = indices[e];                                \
                if (j < lo || j >= hi)                                       \
                    continue;                                                \
                const T a = data[e];                                         \
                T *restrict o = out + j * k;                                 \
                const I *restrict c = col + j * k;                           \
                EDGE                                                         \
            }                                                                \
        }                                                                    \
    }

/* Bit c set where byte c of the WIDTH (<= 64) mask bytes at m is nonzero.
 * Eight bytes at a time: each byte's bits or-ed into its lowest, then one
 * multiply gathers the eight lowest bits into the top byte (the products
 * land on distinct bits, so nothing carries). A row's survivors are then
 * one loop of k trips, not a branch per column. */
static inline uint64_t survivors(const uint8_t *m, int64_t width)
{
    uint64_t bits = 0;
    for (int64_t c = 0; c < width; c += 8) {
        uint64_t word = 0;
        if (width - c >= 8) {
            memcpy(&word, m + c, 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
            word = __builtin_bswap64(word);
#endif
        } else {
            for (int64_t b = 0; b < width - c; b++)
                word |= (uint64_t)m[c + b] << 8 * b;
        }
        word |= word >> 4;
        word |= word >> 2;
        word |= word >> 1;
        word &= UINT64_C(0x0101010101010101);
        bits |= (word * UINT64_C(0x0102040810204080)) >> 56 << c;
    }
    return bits;
}

/* The CBSR block of a dense (n_rows, dim) x at a byte mask (nonzero:
 * kept): each row's survivors, columns ascending, into (n_rows, k) data /
 * index. Answers n_rows, or the first row without exactly k survivors
 * (its block row and the ones after it unwritten). */
#define CBSR_PACK(NAME, T, I)                                                \
    int64_t NAME(int64_t n_rows, int64_t dim, int64_t k,                     \
                 const T *restrict x, const uint8_t *restrict mask,          \
                 T *restrict data, I *restrict index)                        \
    {                                                                        \
        for (int64_t i = 0; i < n_rows; i++) {                               \
            int64_t taken = 0;                                               \
            for (int64_t c = 0; c < dim; c += 64) {                          \
                uint64_t bits = survivors(mask + i * dim + c,                \
                                          dim - c < 64 ? dim - c : 64);      \
                for (; bits; bits &= bits - 1) {                             \
                    if (taken == k)                                          \
                        return i;                                            \
                    const int64_t column = c + __builtin_ctzll(bits);        \
                    memcpy(data + i * k + taken, x + i * dim + column,       \
                           sizeof(T));                                       \
                    index[i * k + taken++] = (I)column;                      \
                }                                                            \
            }                                                                \
            if (taken != k)                                                  \
                return i;                                                    \
        }                                                                    \
        return n_rows;                                                       \
    }

/* The inverse for a gradient: out (n_rows, dim) zero but at each row's
 * index columns, which receive its (n_rows, k) block's bytes. */
#define CBSR_UNPACK(NAME, T, I)                                              \
    void NAME(int64_t n_rows, int64_t dim, int64_t k,                        \
              const T *restrict block, const I *restrict index,              \
              T *restrict out)                                               \
    {                                                                        \
        for (int64_t i = 0; i < n_rows; i++) {                               \
            T *restrict row = out + i * dim;                                 \
            memset(row, 0, dim * sizeof(T));                                 \
            for (int64_t t = 0; t < k; t++)                                  \
                memcpy(row + index[i * k + t], block + i * k + t, sizeof(T));\
        }                                                                    \
    }

/* One instance per value type (numpy type char f / d) and index width,
 * its SpGEMM / SSpMM running SPGEMM_ROWS / SSPMM_ROWS (evaluated per
 * call) over their output rows. */
#define CBSR(SUFFIX, T, I, SPGEMM_ROWS, SSPMM_ROWS)                          \
    CBSR_SPGEMM_ROWS(spgemm_##SUFFIX##_rows, T, I)                           \
    CBSR_SSPMM_ROWS(sspmm_##SUFFIX##_rows, T, I, SSPMM_EDGE(0))              \
    SPLIT(spgemm_##SUFFIX, SPGEMM_ROWS, T, I, n_rows, indptr[n_rows] * k)    \
    SPLIT(sspmm_##SUFFIX, SSPMM_ROWS, T, I, n_src, indptr[n_rows] * k)      \
    CBSR_PACK(cbsr_pack_##SUFFIX, T, I)                                      \
    CBSR_UNPACK(cbsr_unpack_##SUFFIX, T, I)
#define CBSR_PORTABLE(SUFFIX, T, I)                                          \
    CBSR(SUFFIX, T, I, spgemm_##SUFFIX##_rows, sspmm_##SUFFIX##_rows)

/* 1 when every call takes the AVX2 bodies below: set as the object loads,
 * on an x86 CPU that has AVX2. Tests write 0 to force the portable loops
 * (and numpy's select). */
int wide = 0;

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

__attribute__((constructor)) static void choose_width(void)
{
    __builtin_cpu_init();
    wide = __builtin_cpu_supports("avx2") != 0;
}

/* The SpMM's sums, a row at a time in strips of STRIP columns: a strip's
 * partial sums stay in registers across all of the row's edges and are
 * stored once; the last dim % STRIP columns run the loop above. The
 * unrolls keep a strip in vector registers at both float widths (without
 * them gcc 12 kept double's on the stack and stored float's through it).
 * Only the AVX2 build was measured on a CPU that runs it, so the CPUs
 * that take the loop above keep it. (Built for SSE and run on the AVX2
 * host, the strips read 5.8-10.1 against the loop's 6.9-11.6 ms at the
 * bench point, one thread, three runs of 9 alternated rounds.) */
#define STRIP 16
#define SPMM_STRIP_ROWS(NAME, T)                                             \
    __attribute__((target("avx2")))                                          \
    static void NAME(int64_t lo, int64_t hi, ARGS(T, uint8_t))               \
    {                                                                        \
        const int64_t whole = dim - dim % STRIP;                             \
        for (int64_t i = lo; i < hi; i++) {                                  \
            T *restrict row = out + i * dim;                                 \
            for (int64_t s = 0; s < whole; s += STRIP) {                     \
                T sum[STRIP] = {0};                                          \
                for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {       \
                    const T a = data[e];                                     \
                    const T *restrict v = in + indices[e] * dim + s;         \
                    _Pragma("GCC unroll 16")                                 \
                    for (int t = 0; t < STRIP; t++)                          \
                        sum[t] += a * v[t];                                  \
                }                                                            \
                _Pragma("GCC unroll 16")                                     \
                for (int t = 0; t < STRIP; t++)                              \
                    row[s + t] = sum[t];                                     \
            }                                                                \
            for (int64_t t = whole; t < dim; t++)                            \
                row[t] = 0;                                                  \
            for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {           \
                const T a = data[e], *restrict v = in + indices[e] * dim;   \
                for (int64_t t = whole; t < dim; t++)                        \
                    row[t] += a * v[t];                                      \
            }                                                                \
        }                                                                    \
    }

#define SPMM(NAME, T)                                                        \
    SPMM_ROWS(NAME##_rows, T)                                                \
    SPMM_STRIP_ROWS(NAME##_strip_rows, T)                                    \
    SPLIT(NAME, wide ? NAME##_strip_rows : NAME##_rows, T, uint8_t,         \
          n_rows, indptr[n_rows] * dim)

/* The float CBSR pair eight survivors at a time; the last k % 8 run the
 * portable edge. The SpGEMM multiplies a vector of a * v and adds its
 * lanes into the row one by one, in column order; the SSpMM gathers g at
 * eight columns (WIDEN: an index block's eight entries as int32 lanes)
 * and adds a * g into the contiguous o. */
#define SPGEMM_WIDE_ROWS(NAME, I)                                            \
    __attribute__((target("avx2")))                                          \
    static void NAME(int64_t lo, int64_t hi, ARGS(float, I))                 \
    {                                                                        \
        const int64_t whole = k - k % 8;                                     \
        for (int64_t i = lo; i < hi; i++) {                                  \
            float *restrict row = out + i * dim;                             \
            memset(row, 0, dim * sizeof(float));                             \
            for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {           \
                const float a = data[e], *restrict v = in + indices[e] * k; \
                const I *restrict c = col + indices[e] * k;                  \
                const __m256 va = _mm256_set1_ps(a);                         \
                for (int64_t s = 0; s < whole; s += 8) {                     \
                    float p[8];                                              \
                    _mm256_storeu_ps(p, _mm256_mul_ps(va, _mm256_loadu_ps(v + s))); \
                    _Pragma("GCC unroll 8")                                  \
                    for (int t = 0; t < 8; t++)                              \
                        row[c[s + t]] += p[t];                               \
                }                                                            \
                SPGEMM_EDGE(whole)                                           \
            }                                                                \
        }                                                                    \
    }
#define SSPMM_WIDE_EDGE(WIDEN)                                               \
    const __m256 va = _mm256_set1_ps(a);                                     \
    const int64_t whole = k - k % 8;                                         \
    for (int64_t s = 0; s < whole; s += 8) {                                 \
        const __m256 gathered = _mm256_i32gather_ps(g, WIDEN(c + s), 4);     \
        _mm256_storeu_ps(o + s, _mm256_add_ps(                               \
            _mm256_loadu_ps(o + s), _mm256_mul_ps(va, gathered)));           \
    }                                                                        \
    SSPMM_EDGE(whole)
#define WIDEN_U8(p) _mm256_cvtepu8_epi32(_mm_loadl_epi64((const __m128i *)(p)))
#define WIDEN_U16(p) _mm256_cvtepu16_epi32(_mm_loadu_si128((const __m128i *)(p)))
#define WIDEN_U32(p) _mm256_loadu_si256((const __m256i *)(p))

/* The gather's int32 lanes hold columns below 2^31 only. */
#define CBSR_WIDE(SUFFIX, I, WIDEN)                                          \
    SPGEMM_WIDE_ROWS(spgemm_##SUFFIX##_wide_rows, I)                         \
    __attribute__((target("avx2")))                                          \
    CBSR_SSPMM_ROWS(sspmm_##SUFFIX##_wide_rows, float, I,                    \
                    SSPMM_WIDE_EDGE(WIDEN))                                  \
    CBSR(SUFFIX, float, I,                                                   \
         wide ? spgemm_##SUFFIX##_wide_rows : spgemm_##SUFFIX##_rows,        \
         wide && dim <= INT32_MAX ? sspmm_##SUFFIX##_wide_rows               \
                                  : sspmm_##SUFFIX##_rows)

/* Compare-exchange of V's lanes with PARTNER's (V's lanes permuted onto
 * their partners): the lanes set in MAX keep the larger value. */
#define EXCHANGE(V, PARTNER, MAX)                                            \
    _mm256_blend_ps(_mm256_min_ps(V, PARTNER), _mm256_max_ps(V, PARTNER), MAX)
#define SWAP_1(v) _mm256_permute_ps(v, 0xB1)
#define SWAP_2(v) _mm256_permute_ps(v, 0x4E)
#define SWAP_4(v) _mm256_permute2f128_ps(v, v, 1)

/* A bitonic network sorting eight lanes ascending. */
__attribute__((target("avx2"))) static inline __m256 sort8(__m256 v)
{
    v = EXCHANGE(v, SWAP_1(v), 0x66);
    v = EXCHANGE(v, SWAP_2(v), 0x3C);
    v = EXCHANGE(v, SWAP_1(v), 0x5A);
    v = EXCHANGE(v, SWAP_4(v), 0xF0);
    v = EXCHANGE(v, SWAP_2(v), 0xCC);
    return EXCHANGE(v, SWAP_1(v), 0xAA);
}

/* A bitonic sequence of eight lanes sorted descending. */
__attribute__((target("avx2"))) static inline __m256 merge8(__m256 v)
{
    v = EXCHANGE(v, SWAP_4(v), 0x0F);
    v = EXCHANGE(v, SWAP_2(v), 0x33);
    return EXCHANGE(v, SWAP_1(v), 0x55);
}

/* KEEP (lanes all-ones or zero) as 0/1 at eight mask entries. */
#define STORE_FLOAT(to, keep)                                                \
    _mm256_storeu_ps(to, _mm256_and_ps(keep, _mm256_set1_ps(1.0f)))
#define STORE_BYTE(to, keep)                                                 \
    do {                                                                     \
        const __m256i bit = _mm256_srli_epi32(_mm256_castps_si256(keep), 31);\
        const __m128i half = _mm_packs_epi32(                                \
            _mm256_castsi256_si128(bit), _mm256_extracti128_si256(bit, 1));  \
        _mm_storel_epi64((__m128i *)(to), _mm_packs_epi16(half, half));      \
    } while (0)

/* The 0/1 mask of each float row's k <= 8 largest entries, ties to the
 * lowest column (the reference's stable sort), into M out; answers 0
 * without writing when it does not apply (no AVX2, or k > 8) and numpy's
 * select serves. Rows arrive NaN-free. A row's running top 8 stays in one
 * register, sorted descending: each 8-column chunk (the dim % 8 tail
 * padded with -inf) is sorted ascending, the lane-wise max with the top 8
 * keeps the 8 largest of both as a bitonic sequence, and a merge sorts
 * it. Lane k - 1 is the threshold t; one pass writes x >= t and counts
 * it, and a row that kept more than k (t duplicated) is redone: x > t,
 * then the lowest columns equal to t. Min, max and compare take -0 for
 * +0, as the sort does, so a zero threshold selects the same columns. */
#define TOPK(NAME, M, STORE)                                                 \
    __attribute__((target("avx2")))                                          \
    int64_t NAME(int64_t n_rows, int64_t dim, int64_t k,                     \
                 const float *restrict x, M *restrict out)                   \
    {                                                                        \
        if (!wide || k < 1 || k > 8)                                         \
            return 0;                                                        \
        const int64_t whole = dim - dim % 8;                                 \
        const __m256 pad = _mm256_set1_ps(-__builtin_inff());                \
        const __m256i tail = _mm256_cmpgt_epi32(                             \
            _mm256_set1_epi32((int)(dim % 8)),                               \
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));                      \
        for (int64_t i = 0; i < n_rows; i++) {                               \
            const float *restrict row = x + i * dim;                         \
            M *restrict mask = out + i * dim;                                \
            __m256 best = pad;                                               \
            for (int64_t c = 0; c < whole; c += 8)                           \
                best = merge8(_mm256_max_ps(                                 \
                    best, sort8(_mm256_loadu_ps(row + c))));                 \
            if (whole < dim)                                                 \
                best = merge8(_mm256_max_ps(best, sort8(_mm256_blendv_ps(    \
                    pad, _mm256_maskload_ps(row + whole, tail),              \
                    _mm256_castsi256_ps(tail)))));                           \
            const __m256 kth =                                               \
                _mm256_permutevar8x32_ps(best, _mm256_set1_epi32((int)k - 1)); \
            const float t = _mm256_cvtss_f32(kth);                           \
            __m256i count = _mm256_setzero_si256();                          \
            for (int64_t c = 0; c < whole; c += 8) {                         \
                const __m256 keep =                                          \
                    _mm256_cmp_ps(_mm256_loadu_ps(row + c), kth, _CMP_GE_OQ);\
                count = _mm256_sub_epi32(count, _mm256_castps_si256(keep));  \
                STORE(mask + c, keep);                                       \
            }                                                                \
            __m128i sum = _mm_add_epi32(_mm256_castsi256_si128(count),       \
                                        _mm256_extracti128_si256(count, 1)); \
            sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, 0x4E));          \
            sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, 0xB1));          \
            int64_t kept = _mm_cvtsi128_si32(sum);                           \
            for (int64_t c = whole; c < dim; c++)                            \
                kept += (mask[c] = row[c] >= t);                             \
            if (kept == k)                                                   \
                continue;                                                    \
            int64_t ties = k;                                                \
            for (int64_t c = 0; c < dim; c++)                                \
                ties -= row[c] > t;                                          \
            for (int64_t c = 0; c < dim; c++) {                              \
                const int tie = row[c] == t && ties > 0;                     \
                ties -= tie;                                                 \
                mask[c] = row[c] > t || tie;                                 \
            }                                                                \
        }                                                                    \
        return 1;                                                            \
    }

TOPK(topk_f_b, uint8_t, STORE_BYTE)
TOPK(topk_f_f, float, STORE_FLOAT)
SPMM(spmm_f, float)
CBSR_WIDE(f_u8, uint8_t, WIDEN_U8)
CBSR_WIDE(f_u16, uint16_t, WIDEN_U16)
CBSR_WIDE(f_u32, uint32_t, WIDEN_U32)
#else
#define SPMM(NAME, T)                                                        \
    SPMM_ROWS(NAME##_rows, T)                                                \
    SPLIT(NAME, NAME##_rows, T, uint8_t, n_rows, indptr[n_rows] * dim)
SPMM(spmm_f, float)
CBSR_PORTABLE(f_u8, float, uint8_t)
CBSR_PORTABLE(f_u16, float, uint16_t)
CBSR_PORTABLE(f_u32, float, uint32_t)
#endif

SPMM(spmm_d, double)
CBSR_PORTABLE(d_u8, double, uint8_t)
CBSR_PORTABLE(d_u16, double, uint16_t)
CBSR_PORTABLE(d_u32, double, uint32_t)

/* A served window's adjacency, one row at a time, from the served graph's
 * CSR (its structural base). Window row i is node nodes[i] of member
 * member[i]. The loop walks that node's base row and keeps each column c
 * that is a row of the same member, r = table[member[i] * width +
 * local[c]] >= 0 (local[c] = 0, whose table column holds -1 throughout,
 * for a node no member holds), writing r and the base's weight in base
 * order. A member's rows are in node order, so the kept columns stay
 * ascending. out_indptr receives n_rows + 1 offsets, out_indices /
 * out_data room for the rows' base degrees summed; the answer is the
 * entries written. The dispatcher builds local and table, so every index
 * read is in range. Portable, on the calling thread. */
#define WINDOW_ROWS(NAME, T)                                                 \
    int64_t NAME(int64_t n_rows, int64_t width,                              \
                 const int64_t *restrict nodes,                              \
                 const int64_t *restrict member,                             \
                 const int64_t *restrict local,                              \
                 const int64_t *restrict table,                              \
                 const int64_t *restrict indptr,                             \
                 const int64_t *restrict indices, const T *restrict data,    \
                 int64_t *restrict out_indptr,                               \
                 int64_t *restrict out_indices, T *restrict out_data)        \
    {                                                                        \
        int64_t nnz = 0;                                                     \
        out_indptr[0] = 0;                                                   \
        for (int64_t i = 0; i < n_rows; i++) {                               \
            const int64_t *restrict rows = table + member[i] * width;        \
            const int64_t end = indptr[nodes[i] + 1];                        \
            for (int64_t e = indptr[nodes[i]]; e < end; e++) {               \
                const int64_t r = rows[local[indices[e]]];                   \
                if (r >= 0) {                                                \
                    out_indices[nnz] = r;                                    \
                    out_data[nnz++] = data[e];                               \
                }                                                            \
            }                                                                \
            out_indptr[i + 1] = nnz;                                         \
        }                                                                    \
        return nnz;                                                          \
    }
WINDOW_ROWS(window_rows_f, float)
WINDOW_ROWS(window_rows_d, double)

/* Inverted dropout's forward at float32: numpy's PCG64 stream as
 * Generator.random(dtype=float32) reads it, then the keep mask and the
 * scaled output. PCG64 (numpy's pcg64.h) steps a 128-bit LCG, s = s * M +
 * inc, and answers the XSL-RR output of the new state; each 64-bit word
 * gives two floats, its low half first, each word's top 24 bits times
 * 2^-24. The generator's state travels in `state`: {s high, s low, inc
 * high, inc low, has_uint32, uinteger}, its public state dict's fields.
 * A buffered half (has_uint32) is read first; an odd count leaves the
 * last word's high half buffered. numpy writes each word's high half to
 * uinteger as it draws the word, buffered or not, so the last word's is
 * what the dict holds after. Four lanes draw the words, lane j the words
 * 4t + j, each lane stepping four states at once (s * M^4 + inc * (M^3 +
 * M^2 + M + 1)): the same states as one chain, four multiplies in flight.
 * Then one pass, which vectorises: keep = draw >= (float)p and out =
 * x * (float)scale * keep + 0 (a dropped entry +0, a NaN kept NaN),
 * numpy's float32 compare and multiplies one for one. Built where the
 * compiler has a 128-bit integer (64-bit targets); elsewhere numpy
 * draws. */
#if defined(__SIZEOF_INT128__)
typedef unsigned __int128 pcg128;

static inline uint64_t pcg_output(pcg128 s)
{
    const uint64_t folded = (uint64_t)(s >> 64) ^ (uint64_t)s;
    const unsigned rotation = (unsigned)(s >> 122);
    return folded >> rotation | folded << (-rotation & 63);
}

static inline float uniform(uint32_t half)
{
    return (float)(half >> 8) * (1.0f / 16777216.0f);
}

/* Word w's two floats, at fresh + 2w. */
#define DRAW_WORD(w, s)                                                      \
    do {                                                                     \
        const uint64_t word = pcg_output(s);                                 \
        fresh[2 * (w)] = uniform((uint32_t)word);                            \
        fresh[2 * (w) + 1] = uniform((uint32_t)(word >> 32));                \
    } while (0)

void dropout_f(int64_t n, double p, double scale, uint64_t *restrict state,
               const float *restrict x, float *restrict draw,
               float *restrict keep, float *restrict out)
{
    const pcg128 m = (pcg128)UINT64_C(0x2360ED051FC65DA4) << 64
                     | UINT64_C(0x4385DF649FCCF645);
    const pcg128 inc = (pcg128)state[2] << 64 | state[3];
    pcg128 s = (pcg128)state[0] << 64 | state[1];
    float *fresh = draw;
    if (n > 0 && state[4]) {
        *fresh++ = uniform((uint32_t)state[5]);
        state[4] = 0;
    }
    const int64_t floats = n - (fresh - draw), words = floats / 2;
    int64_t w = 0;
    if (words >= 4) {
        const pcg128 m2 = m * m, m4 = m2 * m2;
        const pcg128 inc4 = inc * (m2 * m + m2 + m + 1);
        pcg128 lane[4];
        for (int j = 0; j < 4; j++)
            lane[j] = s = s * m + inc;
        for (; w + 4 <= words; w += 4) {
            for (int j = 0; j < 4; j++)
                DRAW_WORD(w + j, lane[j]);
            s = lane[3];
            for (int j = 0; j < 4; j++)
                lane[j] = lane[j] * m4 + inc4;
        }
    }
    for (; w < words; w++) {
        s = s * m + inc;
        DRAW_WORD(w, s);
    }
    if (floats % 2) {
        s = s * m + inc;
        fresh[floats - 1] = uniform((uint32_t)pcg_output(s));
        state[4] = 1;
    }
    if (floats > 0)
        state[5] = pcg_output(s) >> 32;
    state[0] = (uint64_t)(s >> 64);
    state[1] = (uint64_t)s;
    const float threshold = (float)p, factor = (float)scale;
    for (int64_t e = 0; e < n; e++) {
        const float kept = draw[e] >= threshold ? 1.0f : 0.0f;
        keep[e] = kept;
        out[e] = x[e] * factor * kept + 0.0f;
    }
}
#endif
