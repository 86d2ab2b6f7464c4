/* The aggregation kernels as plain loops over a CSR adjacency: the dense
 * SpMM and the CBSR pair (MaxK-GNN §4.1 / §4.2). Each walks the adjacency
 * in CSR row order and accumulates every output element one product at a
 * time, in stored-edge order, from zero — the reference backend's order,
 * so the bytes match it without FMA contraction or reassociation
 * (-ffp-contract=off, no -ffast-math). Only where two different NaNs meet
 * may the sign differ: which one an add returns is the compiler's operand
 * order, which IEEE 754 leaves open. Threads split the output rows so
 * each element is written by one thread: the same order at any thread
 * count. The SpMM has a second body, built for AVX2 alone and chosen as
 * the object loads on a CPU that has it; other CPUs and architectures
 * run the portable loop. Nothing is bounds-checked here; the Python
 * dispatcher validates every index these loops read. */
#include <stdint.h>

/* Below this many multiply-adds (nnz * dim, or nnz * k) a call stays on
 * the calling thread. 2-vCPU Xeon, gcc 12, float32, idle threads asleep
 * between calls: a second thread first pays for its wake-up at 2^19 for
 * the owner-split SSpMM and 2^17 for the SpGEMM (k 8, median of 41). The
 * SpMM's AVX2 strips at dim 64, 12 rounds of 41 calls alternated within
 * minutes, medians: at 2^20 two threads 0.21 ms against one's 0.25
 * (faster in 8 of 12 rounds), at the 465 k-edge bench point 4.8 against
 * 6.8 ms (9 of 12); one thread under taskset -c 0, 0.20 and 6.3 ms. */
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

/* 1 when every SpMM call takes the AVX2 strips below: set as the object
 * loads, on an x86 CPU that has AVX2. Tests write 0 to force the loop
 * above. */
int wide_spmm = 0;

#if defined(__x86_64__) || defined(__i386__)
/* The same sums, a row at a time in strips of STRIP columns: a strip's
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
        const int64_t wide = dim - dim % STRIP;                              \
        for (int64_t i = lo; i < hi; i++) {                                  \
            T *restrict row = out + i * dim;                                 \
            for (int64_t s = 0; s < wide; s += STRIP) {                      \
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
            for (int64_t t = wide; t < dim; t++)                             \
                row[t] = 0;                                                  \
            for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {           \
                const T a = data[e], *restrict v = in + indices[e] * dim;   \
                for (int64_t t = wide; t < dim; t++)                         \
                    row[t] += a * v[t];                                      \
            }                                                                \
        }                                                                    \
    }

__attribute__((constructor)) static void choose_spmm(void)
{
    __builtin_cpu_init();
    wide_spmm = __builtin_cpu_supports("avx2") != 0;
}

#define SPMM(NAME, T)                                                        \
    SPMM_ROWS(NAME##_rows, T)                                                \
    SPMM_STRIP_ROWS(NAME##_strip_rows, T)                                    \
    SPLIT(NAME, wide_spmm ? NAME##_strip_rows : NAME##_rows, T, uint8_t,    \
          n_rows, indptr[n_rows] * dim)
#else
#define SPMM(NAME, T)                                                        \
    SPMM_ROWS(NAME##_rows, T)                                                \
    SPLIT(NAME, NAME##_rows, T, uint8_t, n_rows, indptr[n_rows] * dim)
#endif

/* out (n_rows, dim), zeroed by the caller: the row-wise-product SpGEMM,
 * out[i, col[j, t]] += a_ij * in[j, t] into the dense dim-wide row i. */
#define CBSR_SPGEMM(NAME, T, I)                                              \
    static void NAME##_rows(int64_t lo, int64_t hi, ARGS(T, I))              \
    {                                                                        \
        for (int64_t i = lo; i < hi; i++) {                                  \
            T *restrict row = out + i * dim;                                 \
            for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {           \
                const T a = data[e], *restrict v = in + indices[e] * k;     \
                const I *restrict c = col + indices[e] * k;                  \
                for (int64_t t = 0; t < k; t++)                              \
                    row[c[t]] += a * v[t];                                   \
            }                                                                \
        }                                                                    \
    }                                                                        \
    SPLIT(NAME, NAME##_rows, T, I, n_rows, indptr[n_rows] * k)

/* out (n_src, k), zeroed by the caller: the outer-product SSpMM, out[j, t]
 * += a_ij * in[i, col[j, t]], with no transpose of A. Its output rows are
 * the adjacency's columns, so a block walks all of A and takes only the
 * edges whose column j it owns (the owner split). */
#define CBSR_SSPMM(NAME, T, I)                                               \
    static void NAME##_rows(int64_t lo, int64_t hi, ARGS(T, I))              \
    {                                                                        \
        for (int64_t i = 0; i < n_rows; i++) {                               \
            const T *restrict g = in + i * dim;                              \
            for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {           \
                const int64_t j = indices[e];                                \
                if (j < lo || j >= hi)                                       \
                    continue;                                                \
                const T a = data[e];                                         \
                T *restrict o = out + j * k;                                 \
                const I *restrict c = col + j * k;                           \
                for (int64_t t = 0; t < k; t++)                              \
                    o[t] += a * g[c[t]];                                     \
            }                                                                \
        }                                                                    \
    }                                                                        \
    SPLIT(NAME, NAME##_rows, T, I, n_src, indptr[n_rows] * k)

/* One instance per value type (numpy type char f / d) and index width. */
#define CBSR_PAIR(SUFFIX, T, I)                                              \
    CBSR_SPGEMM(spgemm_##SUFFIX, T, I)                                       \
    CBSR_SSPMM(sspmm_##SUFFIX, T, I)

SPMM(spmm_f, float)
SPMM(spmm_d, double)
CBSR_PAIR(f_u8, float, uint8_t)
CBSR_PAIR(f_u16, float, uint16_t)
CBSR_PAIR(f_u32, float, uint32_t)
CBSR_PAIR(d_u8, double, uint8_t)
CBSR_PAIR(d_u16, double, uint16_t)
CBSR_PAIR(d_u32, double, uint32_t)
