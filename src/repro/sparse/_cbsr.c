/* The aggregation kernels as plain loops over a CSR adjacency: the dense
 * SpMM and the CBSR pair (MaxK-GNN §4.1 / §4.2). Each walks the adjacency
 * in CSR row order and accumulates every output element one product at a
 * time, in stored-edge order, from zero — the reference backend's order,
 * so the bytes match it without FMA contraction or reassociation
 * (-ffp-contract=off, no -ffast-math). Threads split the output rows so
 * each element is written by one thread: the same order at any thread
 * count. Nothing is bounds-checked here; the Python dispatcher validates
 * every index these loops read. */
#include <stdint.h>

/* Below this many multiply-adds (nnz * dim, or nnz * k) a call stays on
 * the calling thread. 2-core Xeon, gcc 12, float32, dim 64 / k 8, idle
 * threads asleep between calls, median of 41: a second thread first pays
 * for its wake-up at 2^20 for the SpMM (0.19 vs 0.19 ms; 2^19: 0.11 vs
 * 0.14-0.16 ms), 2^19 for the owner-split SSpMM and 2^17 for the SpGEMM. */
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

/* NAME runs NAME_rows over blocks [lo, hi) of its N output rows: all of
 * them on the calling thread below MIN_PARALLEL_WORK, else one contiguous
 * block per thread. */
#define SPLIT(NAME, T, I, N, WORK)                                           \
    void NAME(ARGS(T, I))                                                    \
    {                                                                        \
        const int64_t blocks = (WORK) >= MIN_PARALLEL_WORK ? threads : 1;   \
        if (blocks == 1) {                                                   \
            NAME##_rows(0, N, PASS);                                         \
            return;                                                          \
        }                                                                    \
        _Pragma("omp parallel for schedule(static) num_threads(threads)")   \
        for (int64_t p = 0; p < blocks; p++)                                 \
            NAME##_rows(N * p / blocks, N * (p + 1) / blocks, PASS);         \
    }

/* out (n_rows, dim) = A @ x, each row zeroed and accumulated in turn. */
#define SPMM(NAME, T)                                                        \
    static void NAME##_rows(int64_t lo, int64_t hi, ARGS(T, uint8_t))        \
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
    }                                                                        \
    SPLIT(NAME, T, uint8_t, n_rows, indptr[n_rows] * dim)

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
    SPLIT(NAME, T, I, n_rows, indptr[n_rows] * k)

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
    SPLIT(NAME, T, I, n_src, indptr[n_rows] * k)

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
