/* The step loop of the cloud loss pass (cloudloss.py).  Compiled with
   -ffp-contract=off, so no product is fused into a sum: every operation is
   the IEEE operation numpy does, in the same order.  The inputs and labels
   are read in place: step t's is x[t * xs] or y[t * ys], with the strides xs
   and ys counted in doubles and possibly negative or zero. */

/* Step m predictors over the n inputs x.  w, (12, m), holds the rows a00
   a01 a10 a11 b0 b1 bs0 bs1 c0 c1 d by, the order of the parameter vector's
   blocks (cloudloss.PARAM_BLOCKS); the states s, (2, m), the vector's last
   two rows (block s0), advance in place; out[t*m + j] receives predictor j's
   output pre-activation at step t.  The ReLU is np.maximum(p, 0.0): NaN stays
   NaN, -0.0 becomes +0.0. */
void step(long n, long m, const double *x, long xs, const double *w, double *s, double *out)
{
    for (long t = 0; t < n; t++)
        for (long j = 0; j < m; j++) {
            double s0 = s[j], s1 = s[m + j], xt = x[t * xs];
            double p0 = (w[j] * s0 + w[m + j] * s1 + w[4 * m + j] * xt) + w[6 * m + j];
            double p1 = (w[2 * m + j] * s0 + w[3 * m + j] * s1 + w[5 * m + j] * xt)
                        + w[7 * m + j];
            out[t * m + j] = (w[8 * m + j] * s0 + w[9 * m + j] * s1 + w[10 * m + j] * xt)
                             + w[11 * m + j];
            s[j] = p0 > 0 || p0 != p0 ? p0 : 0.0;
            s[m + j] = p1 > 0 || p1 != p1 ? p1 : 0.0;
        }
}

/* acc[j] += (yhat[t*m + j] - y[t*ys])^2 for t = 0, 1, ..., n-1 in turn. */
void add_squares(long n, long m, const double *yhat, const double *y, long ys, double *acc)
{
    for (long t = 0; t < n; t++)
        for (long j = 0; j < m; j++) {
            double e = yhat[t * m + j] - y[t * ys];
            acc[j] += e * e;
        }
}
