/* Jacobi window update, the compiled body of kernel.apply_window.
 *
 * Summation order per cell is fixed: ((((x- + x+) + y-) + y+) + z-) + z+,
 * then times 1/6, the same as the numpy oracle.  Build without fast-math and
 * with -ffp-contract=off so that no reassociation or fused multiply-add
 * changes a result bit.
 *
 * Arrays are (z, y, x) with unit x stride; sy and sz are the y and z strides
 * in elements.  src and dst may be one array written in a diagonally shifted
 * frame.  Rows then run ascending in z and y when dst_off < src_off and
 * descending when dst_off > src_off, so a store lands only where every cell
 * that reads it has already been updated.  A row's stores land in another
 * row than any it reads, so x always ascends.
 */
#include <stddef.h>

void jacobi_window(const double *src, double *dst, ptrdiff_t sy, ptrdiff_t sz,
                   ptrdiff_t src_off, ptrdiff_t dst_off,
                   ptrdiff_t xl, ptrdiff_t xh, ptrdiff_t yl, ptrdiff_t yh,
                   ptrdiff_t zl, ptrdiff_t zh, int descending)
{
    const double sixth = 1.0 / 6.0;
    for (ptrdiff_t kz = 0; kz < zh - zl; kz++) {
        ptrdiff_t z = descending ? zh - 1 - kz : zl + kz;
        for (ptrdiff_t ky = 0; ky < yh - yl; ky++) {
            ptrdiff_t y = descending ? yh - 1 - ky : yl + ky;
            const double *c = src + (z + src_off) * sz + (y + src_off) * sy + src_off;
            double *d = dst + (z + dst_off) * sz + (y + dst_off) * sy + dst_off;
            for (ptrdiff_t x = xl; x < xh; x++)
                d[x] = (((((c[x - 1] + c[x + 1]) + c[x - sy]) + c[x + sy])
                         + c[x - sz]) + c[x + sz]) * sixth;
        }
    }
}
