/* The CBSR kernel pair (MaxK-GNN §4.1 / §4.2) as plain loops over a CSR
 * adjacency and the (n_src, k) value / column blocks.
 *
 * Both walk the adjacency in CSR row order and accumulate every output
 * element one product at a time, in stored-edge order: the order of the
 * reference backend's loops, so the bytes match it when compiled without
 * FMA contraction or reassociation (-ffp-contract=off, no -ffast-math).
 * Work is proportional to nnz * k; nothing is bounds-checked here — the
 * Python dispatcher validates every index these loops read. */
#include <stdint.h>

/* out (n_rows, dim), zeroed by the caller: the row-wise-product SpGEMM,
 * out[i, col[j, t]] += a_ij * val[j, t] into the dense dim-wide row i. */
#define CBSR_SPGEMM(NAME, T, I)                                              \
    void NAME(int64_t n_rows, int64_t k, int64_t dim,                       \
              const int64_t *restrict indptr, const int64_t *restrict indices, \
              const T *restrict data, const T *restrict val,                \
              const I *restrict col, T *restrict out)                       \
    {                                                                        \
        for (int64_t i = 0; i < n_rows; i++) {                              \
            T *restrict row = out + i * dim;                                 \
            for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {           \
                const T a = data[e];                                         \
                const T *restrict v = val + indices[e] * k;                  \
                const I *restrict c = col + indices[e] * k;                  \
                for (int64_t t = 0; t < k; t++)                              \
                    row[c[t]] += a * v[t];                                   \
            }                                                                \
        }                                                                    \
    }

/* out (n_src, k), zeroed by the caller: the outer-product SSpMM,
 * out[j, t] += a_ij * grad[i, col[j, t]] — the gradient sampled at the
 * forward pattern, with no transpose of the adjacency. */
#define CBSR_SSPMM(NAME, T, I)                                               \
    void NAME(int64_t n_rows, int64_t k, int64_t dim,                       \
              const int64_t *restrict indptr, const int64_t *restrict indices, \
              const T *restrict data, const T *restrict grad,               \
              const I *restrict col, T *restrict out)                       \
    {                                                                        \
        for (int64_t i = 0; i < n_rows; i++) {                              \
            const T *restrict g = grad + i * dim;                            \
            for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {           \
                const T a = data[e];                                         \
                T *restrict o = out + indices[e] * k;                        \
                const I *restrict c = col + indices[e] * k;                  \
                for (int64_t t = 0; t < k; t++)                              \
                    o[t] += a * g[c[t]];                                     \
            }                                                                \
        }                                                                    \
    }

/* One instance per value type (numpy type char f / d) and index width. */
#define CBSR_PAIR(SUFFIX, T, I)                                              \
    CBSR_SPGEMM(spgemm_##SUFFIX, T, I)                                       \
    CBSR_SSPMM(sspmm_##SUFFIX, T, I)

CBSR_PAIR(f_u8, float, uint8_t)
CBSR_PAIR(f_u16, float, uint16_t)
CBSR_PAIR(f_u32, float, uint32_t)
CBSR_PAIR(d_u8, double, uint8_t)
CBSR_PAIR(d_u16, double, uint16_t)
CBSR_PAIR(d_u32, double, uint32_t)
