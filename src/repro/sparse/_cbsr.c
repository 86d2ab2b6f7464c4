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
 * AVX2 bodies, and the float CBSR pair AVX-512 (F, VL, BW) bodies at
 * dim <= 64 and k <= 16, each built for its instruction set alone. `wide`
 * holds the level the CPU has, read as the object loads: 2 AVX-512, 1
 * AVX2, 0 the portable loops (and numpy's select) on other CPUs and
 * architectures; each call takes the highest body its level and shape
 * allow. A vector body does the portable loop's products and adds, each
 * rounded alone, per element in the same order: the SpMM's AVX2 body walks
 * a row's edges once per eight registers of columns (64 float, 32
 * double), the last strip narrower and its last register masked to the
 * tail; the AVX-512 pair keeps the SpGEMM's output row and the SSpMM's
 * gradient row in registers, the SpGEMM adding an exact +0 to the columns
 * an edge does not touch (the same bytes: see there). The select decides
 * by compares alone, and the pack and unpack copy bytes. Nothing is
 * bounds-checked here; the Python dispatcher validates every index these
 * loops read, but for splice_renumber's order entries (see there).
 * Outside the aggregation, all portable and on the calling thread: a
 * served window's adjacency rows (window_rows_f / _d), copied out of the
 * served graph's CSR rows and renumbered; a graph delta's renumber-splice
 * of an edge index (splice_renumber_u8 / _u16 / _u32) and its locate step
 * (group_search); and last dropout's forward (dropout_f), numpy's PCG64
 * float32 draws and its compare and multiplies, built wherever the
 * compiler has a 128-bit integer. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Below this many multiply-adds (nnz * dim, or nnz * k) a call stays on
 * the calling thread. 2-vCPU Xeon, gcc 12, float32, idle threads asleep
 * between calls. The SpMM's 16-column AVX2 strips at dim 64, 12 rounds of
 * 41 calls alternated within minutes, medians: at 2^20 two threads
 * 0.21 ms against one's 0.25 (faster in 8 of 12 rounds), at the 465
 * k-edge bench point 4.8 against 6.8 ms (9 of 12); one thread under
 * taskset -c 0, 0.20 and 6.3 ms. The eight-register strips, the same
 * protocol in two runs on a VM whose second vCPU then bought nothing: at
 * 2^20 two threads 0.092 / 0.085 ms against one's 0.085 / 0.078 (faster
 * in 3 and 0 of 12 rounds), at the bench point 2.54 / 2.06 against
 * 2.37 / 2.07 (4 and 7 of 12); under taskset -c 0, 0.079 and 3.0 ms. The
 * 16-column strips, timed between them, read alike (0 and 3 of 12), so
 * the readings place no crossover and the bound stays. The CBSR pair's
 * AVX2 bodies at k 8, built with no threshold, two runs of 8 rounds of 21
 * calls, one thread against two: the SpGEMM gains from 2^16-2^17 (0.20
 * against 0.16 ms at 2^17, 7 of 8 rounds twice), the owner-split SSpMM
 * from 2^18-2^19 (0.50-0.52 against 0.42-0.43 ms at 2^19, 7-8 of 8); at
 * 2^20 two threads win every round (SpGEMM 1.5 against 1.0 ms, SSpMM 1.0
 * against 0.73-0.83); under taskset -c 0 one thread reads 1.2-1.5 and
 * 0.76-1.08 ms there. One bound for all three stays at 2^20: the pair
 * gives up at most 0.5 ms per call between its crossovers and it, the
 * SpMM none. The AVX-512 pair at 64 / 8 on the 465 k-edge graph, 10
 * rounds on a VM whose second vCPU then bought nothing: two threads read
 * 1.87 ms (SpGEMM) and 1.60 ms (owner-split SSpMM) against one's 1.45
 * and 1.07; recorded for the threads question, the bound unchanged. */
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

/* Runs ROWS(lo, hi, ...) over blocks [lo, hi) of N output rows: all of
 * them on the calling thread below MIN_PARALLEL_WORK, else one contiguous
 * block per thread. */
#define SPLIT_RUN(ROWS, N, WORK, ...)                                        \
    {                                                                        \
        const int64_t blocks = (WORK) >= MIN_PARALLEL_WORK ? threads : 1;   \
        if (blocks == 1) {                                                   \
            ROWS(0, N, __VA_ARGS__);                                         \
        } else {                                                             \
            _Pragma("omp parallel for schedule(static) num_threads(threads)") \
            for (int64_t p = 0; p < blocks; p++)                             \
                ROWS(N * p / blocks, N * (p + 1) / blocks, __VA_ARGS__);     \
        }                                                                    \
    }

/* NAME runs ROWS, evaluated once per call, split over its N output rows. */
#define SPLIT(NAME, ROWS, T, I, N, WORK)                                     \
    void NAME(ARGS(T, I))                                                    \
    {                                                                        \
        void (*const rows)(int64_t, int64_t, ARGS(T, I)) = ROWS;             \
        SPLIT_RUN(rows, N, WORK, PASS)                                       \
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
#define CBSR_SSPMM_ROWS(NAME, T, I, ROW, EDGE)                               \
    static void NAME(int64_t lo, int64_t hi, ARGS(T, I))                     \
    {                                                                        \
        memset(out + lo * k, 0, (hi - lo) * k * sizeof(T));                  \
        for (int64_t i = 0; i < n_rows; i++) {                               \
            const T *restrict g = in + i * dim;                              \
            ROW                                                              \
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

/* One instance per value type (numpy type char f / d) and index width:
 * the portable rows, the SSpMM running SSPMM_ROWS (evaluated per call)
 * over its output rows, the pack and the unpack. The SpGEMM's dispatcher
 * is the caller's: CBSR_PORTABLE splits the portable rows, CBSR_WIDE
 * tries its vector bodies first. */
#define CBSR(SUFFIX, T, I, SSPMM_ROWS)                                       \
    CBSR_SPGEMM_ROWS(spgemm_##SUFFIX##_rows, T, I)                           \
    CBSR_SSPMM_ROWS(sspmm_##SUFFIX##_rows, T, I, , SSPMM_EDGE(0))            \
    SPLIT(sspmm_##SUFFIX, SSPMM_ROWS, T, I, n_src, indptr[n_rows] * k)      \
    CBSR_PACK(cbsr_pack_##SUFFIX, T, I)                                      \
    CBSR_UNPACK(cbsr_unpack_##SUFFIX, T, I)
#define CBSR_PORTABLE(SUFFIX, T, I)                                          \
    CBSR(SUFFIX, T, I, sspmm_##SUFFIX##_rows)                                \
    SPLIT(spgemm_##SUFFIX, spgemm_##SUFFIX##_rows, T, I, n_rows,             \
          indptr[n_rows] * k)

/* The vector level every call takes, set as the object loads from the
 * x86 CPU's flags: 2 with AVX-512 F, VL and BW, 1 with AVX2, else 0 (the
 * portable loops and numpy's select). A body runs where the level reaches
 * its own and the call's shape fits it. Tests write lower levels to force
 * the bodies below. */
int wide = 0;

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

__attribute__((constructor)) static void choose_width(void)
{
    __builtin_cpu_init();
    wide = __builtin_cpu_supports("avx512f") &&
                   __builtin_cpu_supports("avx512vl") &&
                   __builtin_cpu_supports("avx512bw")
               ? 2
               : __builtin_cpu_supports("avx2") != 0;
}

/* The SpMM's sums, a row at a time in strips of eight vector registers
 * (64 float or 32 double columns): one walk over the row's edges adds
 * each edge's a * v into all eight, and the strip's sums are stored once.
 * The dim % (8 * LANES) columns left after the whole strips run as one
 * narrower strip of REGS registers, the last masked to the dim % LANES
 * tail columns (its lanes past dim neither loaded nor stored; all lanes
 * where LANES divides dim). A strip is a function per register count, so
 * its accumulators are named registers; a generic T sum[64] under GCC
 * unroll kept them on the stack (1.12x slower at dim 64), and inlined
 * into the row loop gcc 12 re-derived each register's address per edge.
 * The tail walked as the loop above read 0.92x of the 16-column strips
 * against the masked register's 0.31x at dim 7. Each register starts at
 * +0 and takes acc + a * v per edge, a multiply then an add. Only the
 * AVX2 build was measured on a CPU that runs it, so the CPUs that take
 * the loop above keep it. */
#define SPMM_STRIP(NAME, T, V, SFX, LANES, REGS, MASKED)                     \
    __attribute__((target("avx2"), noinline)) static void NAME(              \
        const int64_t lo, const int64_t hi, const int64_t dim,               \
        const int64_t *restrict indices, const T *restrict data,             \
        const T *restrict in, const __m256i tail, T *restrict row)           \
    {                                                                        \
        enum { PLAIN = REGS - MASKED };                                      \
        V acc[REGS];                                                         \
        _Pragma("GCC unroll 8")                                              \
        for (int r = 0; r < REGS; r++)                                       \
            acc[r] = _mm256_setzero_##SFX();                                 \
        for (int64_t e = lo; e < hi; e++) {                                  \
            const V a = _mm256_set1_##SFX(data[e]);                          \
            const T *restrict v = in + indices[e] * dim;                     \
            _Pragma("GCC unroll 8")                                          \
            for (int r = 0; r < PLAIN; r++)                                  \
                acc[r] = _mm256_add_##SFX(acc[r], _mm256_mul_##SFX(          \
                    a, _mm256_loadu_##SFX(v + r * LANES)));                  \
            if (MASKED)                                                      \
                acc[PLAIN] = _mm256_add_##SFX(acc[PLAIN], _mm256_mul_##SFX(  \
                    a, _mm256_maskload_##SFX(v + PLAIN * LANES, tail)));     \
        }                                                                    \
        _Pragma("GCC unroll 8")                                              \
        for (int r = 0; r < PLAIN; r++)                                      \
            _mm256_storeu_##SFX(row + r * LANES, acc[r]);                    \
        if (MASKED)                                                          \
            _mm256_maskstore_##SFX(row + PLAIN * LANES, tail, acc[PLAIN]);   \
    }
#define SPMM_STRIP_ROWS(NAME, T, V, SFX, LANES, TAIL)                        \
    SPMM_STRIP(NAME##_8, T, V, SFX, LANES, 8, 0)                             \
    SPMM_STRIP(NAME##_1m, T, V, SFX, LANES, 1, 1)                            \
    SPMM_STRIP(NAME##_2m, T, V, SFX, LANES, 2, 1)                            \
    SPMM_STRIP(NAME##_3m, T, V, SFX, LANES, 3, 1)                            \
    SPMM_STRIP(NAME##_4m, T, V, SFX, LANES, 4, 1)                            \
    SPMM_STRIP(NAME##_5m, T, V, SFX, LANES, 5, 1)                            \
    SPMM_STRIP(NAME##_6m, T, V, SFX, LANES, 6, 1)                            \
    SPMM_STRIP(NAME##_7m, T, V, SFX, LANES, 7, 1)                            \
    SPMM_STRIP(NAME##_8m, T, V, SFX, LANES, 8, 1)                            \
    __attribute__((target("avx2")))                                          \
    static void NAME(int64_t lo, int64_t hi, ARGS(T, uint8_t))               \
    {                                                                        \
        void (*const narrower[9])(const int64_t, const int64_t,              \
                                  const int64_t, const int64_t *, const T *, \
                                  const T *, const __m256i, T *) = {         \
            0, NAME##_1m, NAME##_2m, NAME##_3m, NAME##_4m, NAME##_5m,        \
            NAME##_6m, NAME##_7m, NAME##_8m};                                \
        const int64_t strips = dim - dim % (8 * LANES);                      \
        const int regs = (int)((dim - strips + LANES - 1) / LANES);          \
        const __m256i tail = TAIL((dim - 1) % LANES + 1);                    \
        for (int64_t i = lo; i < hi; i++) {                                  \
            T *restrict row = out + i * dim;                                 \
            for (int64_t s = 0; s < strips; s += 8 * LANES)                  \
                NAME##_8(indptr[i], indptr[i + 1], dim, indices, data,       \
                         in + s, tail, row + s);                             \
            if (regs)                                                        \
                narrower[regs](indptr[i], indptr[i + 1], dim, indices, data, \
                               in + strips, tail, row + strips);             \
        }                                                                    \
    }

/* All-ones in the first N (1..LANES) lanes of a mask. */
#define TAIL_F(n) _mm256_cmpgt_epi32(_mm256_set1_epi32((int)(n)),            \
                                     _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
#define TAIL_D(n) _mm256_cmpgt_epi64(_mm256_set1_epi64x(n),                  \
                                     _mm256_setr_epi64x(0, 1, 2, 3))

#define SPMM(NAME, T, V, SFX, LANES, TAIL)                                   \
    SPMM_ROWS(NAME##_rows, T)                                                \
    SPMM_STRIP_ROWS(NAME##_strip_rows, T, V, SFX, LANES, TAIL)               \
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

/* The float CBSR pair at dim <= 64 and k <= 16 (a uint8 index block at
 * the shapes the program runs), where an output or gradient row fits four
 * 16-lane registers and an edge's survivors one: the row stays in
 * registers instead of taking k scalar read-modify-writes (SpGEMM) or a
 * gather (SSpMM) per edge. Lanes are picked by vpermt2ps, whose index
 * lanes read their low five bits: 0-15 pick a lane of the first table,
 * 16-31 one of the second. At k <= 8 a row's k floats are read (and the
 * SSpMM's written) as 32 bytes: 64 bytes at a row's 32-byte offset split a
 * cache line every other row, masked lanes included. At 64 / 8 the SSpMM
 * read 0.69 of the AVX2 body that way against 0.59, and the SpGEMM with
 * one 64-byte load 1.06x and 1.09x its time with the 32-byte one (two
 * runs of 10 alternated rounds, slower in 10 and 6). The SpGEMM runs from
 * k = 2: at 64 / 1 one scalar add per edge (the AVX2 body, 0.77 ms) beats
 * four permutes (1.43 ms), at 64 / 2 the permutes read 0.90x of it. And
 * from two edges per source row, where the edges pay for its rank table:
 * about 45 us to build for 5 000 source rows against 4.5 ns saved per
 * edge at 64 / 8 (8 output rows over them, 705 edges, read 3.4x the AVX2
 * body; 128 rows, 11 895 edges, 0.87x). Measured on a 2-vCPU Xeon, gcc 12. */
#define AVX512 "avx512f,avx512vl,avx512bw"
#define FITS_512 (wide >= 2 && dim >= 1 && dim <= 64 && k <= 16)

/* The first N (clamped to 0..16) lanes. */
static inline __mmask16 lanes(int64_t n)
{
    return (__mmask16)(n >= 16 ? 0xFFFF : n <= 0 ? 0 : (1u << n) - 1);
}

/* The SpGEMM's rows over REGS (1..4) registers of output columns, from a
 * rank table: 64 bytes per source row, the survivor rank of each column or
 * 0xFF where it did not survive (one entry per column: the row's columns
 * are distinct, or the AVX2 body serves). Per edge one register holds the
 * k products a * v, the lanes past k zero; each output register adds its
 * 16 columns' lanes of it, an absent column's rank picking a lane of the
 * zero register. The absent columns so add +0, which leaves every sum's
 * bytes as the portable loop's: a sum that starts at +0 is never -0, and
 * NaN and +-inf are fixed points of + 0. The row is stored once, its last
 * register masked to dim. */
#define SPGEMM_512_ROWS(NAME, REGS)                                          \
    __attribute__((target(AVX512), noinline)) static void NAME(              \
        const int64_t lo, const int64_t hi, const int64_t k,                 \
        const int64_t dim, const int64_t *restrict indptr,                   \
        const int64_t *restrict indices, const float *restrict data,         \
        const float *restrict in, const uint8_t *restrict rank,              \
        float *restrict out)                                                 \
    {                                                                        \
        const __mmask16 kept = lanes(k), tail = lanes(dim - 16 * (REGS - 1));\
        const __m512 zero = _mm512_setzero_ps();                             \
        for (int64_t i = lo; i < hi; i++) {                                  \
            __m512 acc[REGS];                                                \
            _Pragma("GCC unroll 4")                                          \
            for (int r = 0; r < REGS; r++)                                   \
                acc[r] = zero;                                               \
            for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {           \
                const int64_t j = indices[e];                                \
                const __m512 v = k <= 8                                      \
                    ? _mm512_castps256_ps512(                                \
                          _mm256_maskz_loadu_ps(kept, in + j * k))           \
                    : _mm512_maskz_loadu_ps(kept, in + j * k);               \
                const __m512 p =                                             \
                    _mm512_maskz_mul_ps(kept, _mm512_set1_ps(data[e]), v);   \
                _Pragma("GCC unroll 4")                                      \
                for (int r = 0; r < REGS; r++)                               \
                    acc[r] = _mm512_add_ps(acc[r], _mm512_permutex2var_ps(   \
                        p, _mm512_cvtepu8_epi32(_mm_loadu_si128(             \
                            (const __m128i *)(rank + j * 64 + 16 * r))),     \
                        zero));                                              \
            }                                                                \
            float *restrict row = out + i * dim;                             \
            _Pragma("GCC unroll 4")                                          \
            for (int r = 0; r < REGS - 1; r++)                               \
                _mm512_storeu_ps(row + 16 * r, acc[r]);                      \
            _mm512_mask_storeu_ps(row + 16 * (REGS - 1), tail, acc[REGS - 1]);\
        }                                                                    \
    }
SPGEMM_512_ROWS(spgemm_512_rows_1, 1)
SPGEMM_512_ROWS(spgemm_512_rows_2, 2)
SPGEMM_512_ROWS(spgemm_512_rows_3, 3)
SPGEMM_512_ROWS(spgemm_512_rows_4, 4)

/* The SpGEMM: the rank table built once per call, then the rows split
 * over it. Answers 0, nothing written, where the table's allocation fails
 * or a source row repeats a column (k > dim always does), and the AVX2
 * body, which adds every product, serves. */
#define SPGEMM_512(NAME, I)                                                  \
    static int NAME(ARGS(float, I))                                          \
    {                                                                        \
        void (*const rows[4])(const int64_t, const int64_t, const int64_t,   \
                              const int64_t, const int64_t *,                \
                              const int64_t *, const float *, const float *, \
                              const uint8_t *, float *) = {                  \
            spgemm_512_rows_1, spgemm_512_rows_2, spgemm_512_rows_3,         \
            spgemm_512_rows_4};                                              \
        uint8_t *const rank = malloc(n_src * 64);                            \
        if (rank == NULL)                                                    \
            return 0;                                                        \
        memset(rank, 0xFF, n_src * 64);                                      \
        for (int64_t j = 0; j < n_src; j++)                                  \
            for (int64_t t = 0; t < k; t++) {                                \
                uint8_t *const at = rank + j * 64 + col[j * k + t];          \
                if (*at != 0xFF) {                                           \
                    free(rank);                                              \
                    return 0;                                                \
                }                                                            \
                *at = (uint8_t)t;                                            \
            }                                                                \
        SPLIT_RUN(rows[(dim - 1) / 16], n_rows, indptr[n_rows] * k, k, dim,  \
                  indptr, indices, data, in, rank, out)                      \
        free(rank);                                                          \
        return 1;                                                            \
    }

/* The SSpMM with gradient row i in four registers, zero past dim. Per
 * edge, two vpermt2ps pick the edge's columns from registers 0-1 and 2-3,
 * a blend on c >= 32 keeps the right one, and a * g is added into o's k
 * entries. WIDEN16 loads an index block row's k entries as int32 lanes,
 * reading nothing past them. */
#define SSPMM_512_ROW                                                        \
    const __mmask16 kept = lanes(k);                                         \
    const __m512 g0 = _mm512_maskz_loadu_ps(lanes(dim), g),                  \
                 g1 = _mm512_maskz_loadu_ps(lanes(dim - 16), g + 16),        \
                 g2 = _mm512_maskz_loadu_ps(lanes(dim - 32), g + 32),        \
                 g3 = _mm512_maskz_loadu_ps(lanes(dim - 48), g + 48);
#define SSPMM_512_EDGE(WIDEN16)                                              \
    const __m512i at = WIDEN16(c, kept);                                     \
    const __m512 picked = _mm512_mask_blend_ps(                              \
        _mm512_cmpge_epu32_mask(at, _mm512_set1_epi32(32)),                  \
        _mm512_permutex2var_ps(g0, at, g1),                                  \
        _mm512_permutex2var_ps(g2, at, g3));                                 \
    if (k <= 8)                                                              \
        _mm256_mask_storeu_ps(o, kept, _mm256_add_ps(                        \
            _mm256_maskz_loadu_ps(kept, o),                                  \
            _mm256_mul_ps(_mm256_set1_ps(a), _mm512_castps512_ps256(picked))));\
    else                                                                     \
        _mm512_mask_storeu_ps(o, kept, _mm512_add_ps(                        \
            _mm512_maskz_loadu_ps(kept, o),                                  \
            _mm512_mul_ps(_mm512_set1_ps(a), picked)));
#define WIDEN16_U8(p, m) _mm512_cvtepu8_epi32(_mm_maskz_loadu_epi8(m, p))
#define WIDEN16_U16(p, m) _mm512_cvtepu16_epi32(_mm256_maskz_loadu_epi16(m, p))
#define WIDEN16_U32(p, m) _mm512_maskz_loadu_epi32(m, p)

/* Every dispatcher takes the highest level its shape allows: AVX-512
 * (FITS_512; the SpGEMM from k = 2 and 2 n_src edges), AVX2 (the
 * gather's int32 lanes hold columns below 2^31 only), then the portable
 * loops. */
#define CBSR_WIDE(SUFFIX, I, WIDEN, WIDEN16)                                 \
    SPGEMM_WIDE_ROWS(spgemm_##SUFFIX##_wide_rows, I)                         \
    __attribute__((target("avx2")))                                          \
    CBSR_SSPMM_ROWS(sspmm_##SUFFIX##_wide_rows, float, I, ,                  \
                    SSPMM_WIDE_EDGE(WIDEN))                                  \
    SPGEMM_512(spgemm_##SUFFIX##_512, I)                                     \
    __attribute__((target(AVX512)))                                          \
    CBSR_SSPMM_ROWS(sspmm_##SUFFIX##_512_rows, float, I, SSPMM_512_ROW,      \
                    SSPMM_512_EDGE(WIDEN16))                                 \
    CBSR(SUFFIX, float, I,                                                   \
         FITS_512 ? sspmm_##SUFFIX##_512_rows                                \
         : wide && dim <= INT32_MAX ? sspmm_##SUFFIX##_wide_rows             \
                                    : sspmm_##SUFFIX##_rows)                 \
    void spgemm_##SUFFIX(ARGS(float, I))                                     \
    {                                                                        \
        if (FITS_512 && k >= 2 && indptr[n_rows] >= 2 * n_src &&            \
            spgemm_##SUFFIX##_512(PASS))                                     \
            return;                                                          \
        void (*const rows)(int64_t, int64_t, ARGS(float, I)) =               \
            wide ? spgemm_##SUFFIX##_wide_rows : spgemm_##SUFFIX##_rows;     \
        SPLIT_RUN(rows, n_rows, indptr[n_rows] * k, PASS)                    \
    }

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
SPMM(spmm_f, float, __m256, ps, 8, TAIL_F)
SPMM(spmm_d, double, __m256d, pd, 4, TAIL_D)
CBSR_WIDE(f_u8, uint8_t, WIDEN_U8, WIDEN16_U8)
CBSR_WIDE(f_u16, uint16_t, WIDEN_U16, WIDEN16_U16)
CBSR_WIDE(f_u32, uint32_t, WIDEN_U32, WIDEN16_U32)
#else
#define SPMM(NAME, T)                                                        \
    SPMM_ROWS(NAME##_rows, T)                                                \
    SPLIT(NAME, NAME##_rows, T, uint8_t, n_rows, indptr[n_rows] * dim)
SPMM(spmm_f, float)
SPMM(spmm_d, double)
CBSR_PORTABLE(f_u8, float, uint8_t)
CBSR_PORTABLE(f_u16, float, uint16_t)
CBSR_PORTABLE(f_u32, float, uint32_t)
#endif

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

/* A graph delta's renumber-splice of one edge index direction's `order`
 * (graphs/mutation.py::_patch_index), in one sweep: each kept entry p =
 * order[i] is written as p - shift[p] (shift[p]: the deleted COO positions
 * below p), the n_drop sorted unique positions `drop` are skipped, and
 * values[j] is written before input position at[j] (ascending, n appends;
 * equal positions in their given order, an insert at a dropped position
 * where the entry was). out receives n - n_drop + n_at entries: the bytes
 * of the numpy expression's renumbering, then its splice, without the
 * E-length renumbered copy between them. The dispatcher bounds drop and
 * at and checks that shift has one entry per order entry; it does not
 * read order's entries, which must be a permutation of shift's positions
 * (an edge index's are). Portable, on the calling thread. */
#define SPLICE_RENUMBER(NAME, S)                                             \
    void NAME(int64_t n, int64_t n_drop, int64_t n_at,                       \
              const int64_t *restrict order, const S *restrict shift,        \
              const int64_t *restrict drop, const int64_t *restrict at,      \
              const int64_t *restrict values, int64_t *restrict out)         \
    {                                                                        \
        int64_t i = 0, d = 0, a = 0;                                         \
        for (;;) {                                                           \
            int64_t stop = n;                                                \
            if (d < n_drop && drop[d] < stop) stop = drop[d];                \
            if (a < n_at && at[a] < stop) stop = at[a];                      \
            for (; i < stop; i++) {                                          \
                const int64_t p = order[i];                                  \
                *out++ = p - (int64_t)shift[p];                              \
            }                                                                \
            while (a < n_at && at[a] == i) *out++ = values[a++];             \
            if (i == n) return;                                              \
            if (d < n_drop && drop[d] == i) {                                \
                d++;                                                         \
                i++;                                                         \
            }                                                                \
        }                                                                    \
    }
SPLICE_RENUMBER(splice_renumber_u8, uint8_t)
SPLICE_RENUMBER(splice_renumber_u16, uint16_t)
SPLICE_RENUMBER(splice_renumber_u32, uint32_t)

/* A delta's locate step (graphs/mutation.py::_group_search): query i
 * bisects group groups[i], the ascending members[indptr[g]:indptr[g + 1]],
 * for wanted[i]. slot[i] receives the slot of the group's first member >=
 * wanted[i] (the group's end if none), found[i] whether that member is
 * wanted[i]: the numpy body's rounds, one query at a time. The dispatcher
 * bounds groups, and each queried group's indptr ends within members.
 * Portable, on the calling thread. */
void group_search(int64_t n, const int64_t *restrict indptr,
                  const int64_t *restrict members,
                  const int64_t *restrict groups,
                  const int64_t *restrict wanted, int64_t *restrict slot,
                  uint8_t *restrict found)
{
    for (int64_t i = 0; i < n; i++) {
        const int64_t end = indptr[groups[i] + 1], w = wanted[i];
        int64_t low = indptr[groups[i]], high = end;
        while (low < high) {
            const int64_t mid = (low + high) >> 1;
            if (members[mid] < w)
                low = mid + 1;
            else
                high = mid;
        }
        slot[i] = low;
        found[i] = low < end && members[low] == w;
    }
}

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
