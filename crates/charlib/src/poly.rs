//! The paper's analytical delay model (§IV.A, eq. 3): a multivariate
//! polynomial in equivalent fanout, input transition time, temperature and
//! supply voltage,
//!
//! ```text
//! f(Fo, t_in, T, VDD) = Σᵢ Σⱼ Σₖ Σₗ  P_ijkl · Foⁱ · t_inʲ · Tᵏ · VDDˡ
//! ```
//!
//! with per-variable maximum orders adjusted during extraction to hit a
//! target accuracy ("recursive polynomial regression").
//!
//! Because an STA run fixes `(T, VDD)` at the corner, the model also
//! supports *corner compilation* ([`PolyModel::compile`]): folding the
//! temperature/voltage axes into the coefficients once, leaving a dense
//! 2-D polynomial in `(Fo, t_in)` that evaluates in a single branch-free
//! nested Horner pass ([`CompiledPoly`]). Both the interpreted and the
//! compiled evaluators are built on the same `horner_2d` primitive, so
//! they agree **bit for bit** at the compiled corner.

use serde::{Deserialize, Serialize};

use crate::regress::{least_squares, rms_residual};

/// Number of model variables (Fo, t_in, T, VDD).
pub const NUM_VARS: usize = 4;

/// One characterization sample: predictor values and the measured response.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Equivalent fanout.
    pub fo: f64,
    /// Input transition time, ps.
    pub t_in: f64,
    /// Temperature, °C.
    pub temperature: f64,
    /// Supply voltage, V.
    pub vdd: f64,
    /// Measured response (delay or output slew), ps.
    pub value: f64,
}

impl Sample {
    fn vars(&self) -> [f64; NUM_VARS] {
        [self.fo, self.t_in, self.temperature, self.vdd]
    }
}

/// Why a polynomial fit could not be produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FitError {
    /// The sample set is empty.
    NoSamples,
    /// A variable is constant across the samples but was assigned a
    /// non-zero order, which would make the design matrix singular.
    ConstantVariable {
        /// Index of the offending variable (0 = Fo … 3 = VDD).
        var: usize,
        /// The requested order for that variable.
        order: usize,
    },
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::NoSamples => write!(f, "no samples to fit"),
            FitError::ConstantVariable { var, order } => write!(
                f,
                "variable {var} is constant in the samples but has order {order}"
            ),
        }
    }
}

impl std::error::Error for FitError {}

/// Nested Horner evaluation of a dense row-major 2-D coefficient matrix
/// with `n1` columns (second variable fastest):
///
/// ```text
/// Σᵢ Σⱼ  c[i·n1 + j] · x0ⁱ · x1ʲ
/// ```
///
/// This is the single arithmetic primitive shared by [`PolyModel::eval`]
/// and [`CompiledPoly::eval`]; keeping the floating-point operation
/// sequence identical in both is what makes a compiled corner reproduce
/// the interpreted model bit for bit.
#[inline]
fn horner_2d(c: &[f64], n1: usize, x0: f64, x1: f64) -> f64 {
    let mut acc = 0.0;
    for row in c.chunks_exact(n1).rev() {
        let mut r = 0.0;
        for &coeff in row.iter().rev() {
            r = r * x1 + coeff;
        }
        acc = acc * x0 + r;
    }
    acc
}

/// A fitted polynomial model.
///
/// Variables are affinely normalized to `[0, 1]` over the fitted range
/// before exponentiation — essential for conditioning when `t_in` spans
/// hundreds of ps while `VDD` spans a fraction of a volt.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolyModel {
    /// Per-variable maximum exponent (inclusive).
    orders: [usize; NUM_VARS],
    /// Coefficients, indexed by mixed radix of the exponents.
    coeffs: Vec<f64>,
    /// Per-variable normalization offset.
    lo: [f64; NUM_VARS],
    /// Per-variable normalization span.
    span: [f64; NUM_VARS],
    /// RMS residual on the training samples, ps.
    rms: f64,
}

impl PolyModel {
    /// Fits a model with fixed per-variable orders.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::NoSamples`] on an empty sample set and
    /// [`FitError::ConstantVariable`] when a variable with order ≥ 1
    /// never varies across the samples.
    ///
    /// # Panics
    ///
    /// Still panics if there are fewer samples than coefficients (a
    /// caller bug, not a data condition).
    pub fn fit(samples: &[Sample], orders: [usize; NUM_VARS]) -> Result<Self, FitError> {
        if samples.is_empty() {
            return Err(FitError::NoSamples);
        }
        let (lo, span) = normalization(samples, &orders)?;
        let cols: usize = orders.iter().map(|o| o + 1).product();
        let rows = samples.len();
        let mut design = vec![0.0; rows * cols];
        let mut y = vec![0.0; rows];
        for (r, s) in samples.iter().enumerate() {
            fill_row(
                &mut design[r * cols..(r + 1) * cols],
                &s.vars(),
                &orders,
                &lo,
                &span,
            );
            y[r] = s.value;
        }
        let coeffs = least_squares(&design, &y, rows, cols);
        let rms = rms_residual(&design, &y, &coeffs, rows, cols);
        Ok(PolyModel {
            orders,
            coeffs,
            lo,
            span,
            rms,
        })
    }

    /// Fits with automatic order selection: starts from order 1 in every
    /// variable and greedily raises the order that most reduces the RMS
    /// residual, until the residual drops below
    /// `target_rel · mean(|value|)` or `max_orders` is reached in every
    /// variable.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::NoSamples`] on an empty sample set.
    pub fn fit_auto(
        samples: &[Sample],
        max_orders: [usize; NUM_VARS],
        target_rel: f64,
    ) -> Result<Self, FitError> {
        if samples.is_empty() {
            return Err(FitError::NoSamples);
        }
        let mean_abs: f64 =
            samples.iter().map(|s| s.value.abs()).sum::<f64>() / samples.len() as f64;
        let target = target_rel * mean_abs.max(1e-9);
        // A variable that never varies in the sample set cannot support
        // order ≥ 1.
        let varies: Vec<bool> = (0..NUM_VARS)
            .map(|v| {
                let first = samples[0].vars()[v];
                samples.iter().any(|s| (s.vars()[v] - first).abs() > 1e-12)
            })
            .collect();
        let start: [usize; NUM_VARS] =
            std::array::from_fn(|v| if varies[v] { 1.min(max_orders[v]) } else { 0 });
        let mut current = PolyModel::fit(samples, start)?;
        loop {
            if current.rms <= target {
                return Ok(current);
            }
            let mut best: Option<PolyModel> = None;
            for v in 0..NUM_VARS {
                if !varies[v] || current.orders[v] >= max_orders[v] {
                    continue;
                }
                let mut orders = current.orders;
                orders[v] += 1;
                let cols: usize = orders.iter().map(|o| o + 1).product();
                if cols > samples.len() {
                    continue;
                }
                let cand = PolyModel::fit(samples, orders)?;
                if best.as_ref().is_none_or(|b| cand.rms < b.rms) {
                    best = Some(cand);
                }
            }
            match best {
                Some(b) if b.rms < current.rms * 0.999 => current = b,
                _ => return Ok(current),
            }
        }
    }

    /// Normalizes variable `v` to the fitted `[0, 1]` range, clamping.
    #[inline]
    fn normalized(&self, v: usize, x: f64) -> f64 {
        ((x - self.lo[v]) / self.span[v]).clamp(0.0, 1.0)
    }

    /// Evaluates the model.
    ///
    /// Inputs are clamped to the fitted range: polynomial extrapolation
    /// of order ≥ 2 diverges rapidly (a net with 4× the largest
    /// characterized fanout would otherwise get a delay off by orders of
    /// magnitude), so outside the grid the model holds its boundary value
    /// — the same convention LUT flows use. Characterize with a grid wide
    /// enough for the design's fanout spread (see
    /// [`crate::CharConfig::standard`]).
    ///
    /// Allocation-free: the mixed-radix coefficient layout is walked as a
    /// nest of Horner recurrences, with the inner `(T, VDD)` block folded
    /// by the same `horner_2d` a [`CompiledPoly`] caches — so compiling
    /// a corner does not change a single output bit.
    pub fn eval(&self, fo: f64, t_in: f64, temperature: f64, vdd: f64) -> f64 {
        let x0 = self.normalized(0, fo);
        let x1 = self.normalized(1, t_in);
        let x2 = self.normalized(2, temperature);
        let x3 = self.normalized(3, vdd);
        let n1 = self.orders[1] + 1;
        let n3 = self.orders[3] + 1;
        let block = (self.orders[2] + 1) * n3;
        let mut acc = 0.0;
        for i in (0..=self.orders[0]).rev() {
            let mut row = 0.0;
            for j in (0..n1).rev() {
                let c_ij = horner_2d(&self.coeffs[(i * n1 + j) * block..][..block], n3, x2, x3);
                row = row * x1 + c_ij;
            }
            acc = acc * x0 + row;
        }
        acc
    }

    /// Partially evaluates the model at a fixed `(T, VDD)` operating
    /// point, folding the temperature/voltage axes into the coefficient
    /// matrix once. The result answers `(Fo, t_in)` queries with a single
    /// nested Horner pass and is bit-identical to [`PolyModel::eval`] at
    /// the same corner.
    pub fn compile(&self, temperature: f64, vdd: f64) -> CompiledPoly {
        let x2 = self.normalized(2, temperature);
        let x3 = self.normalized(3, vdd);
        let n3 = self.orders[3] + 1;
        let block = (self.orders[2] + 1) * n3;
        let coeffs = self
            .coeffs
            .chunks_exact(block)
            .map(|b| horner_2d(b, n3, x2, x3))
            .collect();
        CompiledPoly {
            n0: (self.orders[0] + 1) as u32,
            n1: (self.orders[1] + 1) as u32,
            coeffs,
            lo: [self.lo[0], self.lo[1]],
            span: [self.span[0], self.span[1]],
        }
    }

    /// The per-variable orders of the fitted model.
    pub fn orders(&self) -> [usize; NUM_VARS] {
        self.orders
    }

    /// The fitted per-variable ranges `(lo, hi)` — the box
    /// [`PolyModel::eval`] clamps its inputs to. Sampling inside this box
    /// interrogates the model where it was actually trained (the fitting
    /// grid), which is what sanity checks should do: outside it the model
    /// just holds its boundary value.
    pub fn domain(&self) -> [(f64, f64); NUM_VARS] {
        std::array::from_fn(|v| (self.lo[v], self.lo[v] + self.span[v]))
    }

    /// RMS residual on the training set, ps.
    pub fn training_rms(&self) -> f64 {
        self.rms
    }

    /// Number of stored coefficients.
    pub fn num_coefficients(&self) -> usize {
        self.coeffs.len()
    }
}

/// A [`PolyModel`] with the corner's `(T, VDD)` folded in: a dense 2-D
/// Horner coefficient matrix over normalized `(Fo, t_in)`.
///
/// Produced by [`PolyModel::compile`]; the heart of the corner-compiled
/// kernel layer (`CompiledCorner`). Evaluation is branch-free and
/// allocation-free, and reproduces the interpreted model bit for bit at
/// the compiled corner.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompiledPoly {
    /// Number of Fo rows (`orders[0] + 1`).
    n0: u32,
    /// Number of t_in columns (`orders[1] + 1`).
    n1: u32,
    /// Row-major folded coefficients, `n0 × n1`.
    coeffs: Vec<f64>,
    /// Normalization offsets for (Fo, t_in).
    lo: [f64; 2],
    /// Normalization spans for (Fo, t_in).
    span: [f64; 2],
}

impl CompiledPoly {
    /// Evaluates the folded polynomial at `(Fo, t_in)`, clamping both to
    /// the fitted range exactly like [`PolyModel::eval`].
    #[inline]
    pub fn eval(&self, fo: f64, t_in: f64) -> f64 {
        let x0 = ((fo - self.lo[0]) / self.span[0]).clamp(0.0, 1.0);
        let x1 = ((t_in - self.lo[1]) / self.span[1]).clamp(0.0, 1.0);
        horner_2d(&self.coeffs, self.n1 as usize, x0, x1)
    }

    /// The `(rows, cols)` shape of the folded coefficient matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.n0 as usize, self.n1 as usize)
    }

    /// Number of folded coefficients (`rows × cols`).
    pub fn num_coefficients(&self) -> usize {
        self.coeffs.len()
    }
}

fn normalization(
    samples: &[Sample],
    orders: &[usize; NUM_VARS],
) -> Result<([f64; NUM_VARS], [f64; NUM_VARS]), FitError> {
    let mut lo = [f64::INFINITY; NUM_VARS];
    let mut hi = [f64::NEG_INFINITY; NUM_VARS];
    for s in samples {
        for (v, x) in s.vars().into_iter().enumerate() {
            lo[v] = lo[v].min(x);
            hi[v] = hi[v].max(x);
        }
    }
    let mut span = [1.0; NUM_VARS];
    for v in 0..NUM_VARS {
        let s = hi[v] - lo[v];
        if s > 1e-12 {
            span[v] = s;
        } else {
            // Constant variable: normalize to 0 so higher powers vanish.
            span[v] = 1.0;
            if orders[v] != 0 {
                return Err(FitError::ConstantVariable {
                    var: v,
                    order: orders[v],
                });
            }
        }
    }
    Ok((lo, span))
}

fn fill_row(
    row: &mut [f64],
    vars: &[f64; NUM_VARS],
    orders: &[usize; NUM_VARS],
    lo: &[f64; NUM_VARS],
    span: &[f64; NUM_VARS],
) {
    let powers: [Vec<f64>; NUM_VARS] = std::array::from_fn(|v| {
        let x = (vars[v] - lo[v]) / span[v];
        let mut p = Vec::with_capacity(orders[v] + 1);
        let mut acc = 1.0;
        for _ in 0..=orders[v] {
            p.push(acc);
            acc *= x;
        }
        p
    });
    let mut idx = [0usize; NUM_VARS];
    for slot in row.iter_mut() {
        *slot = powers[0][idx[0]] * powers[1][idx[1]] * powers[2][idx[2]] * powers[3][idx[3]];
        for v in (0..NUM_VARS).rev() {
            idx[v] += 1;
            if idx[v] <= orders[v] {
                break;
            }
            idx[v] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(f: impl Fn(f64, f64, f64, f64) -> f64) -> Vec<Sample> {
        let mut out = Vec::new();
        for &fo in &[0.5, 1.0, 2.0, 4.0, 8.0] {
            for &t_in in &[10.0, 40.0, 120.0, 300.0] {
                for &temp in &[0.0, 25.0, 75.0, 125.0] {
                    for &vdd in &[0.9, 1.0, 1.1] {
                        out.push(Sample {
                            fo,
                            t_in,
                            temperature: temp,
                            vdd,
                            value: f(fo, t_in, temp, vdd),
                        });
                    }
                }
            }
        }
        out
    }

    #[test]
    fn recovers_polynomial_ground_truth() {
        // A function exactly representable at orders (2,1,1,1).
        let truth = |fo: f64, t: f64, temp: f64, v: f64| {
            20.0 + 8.0 * fo + 0.4 * fo * fo + 0.15 * t + 0.02 * temp - 30.0 * (v - 1.0)
                + 0.01 * fo * t
        };
        let samples = synth(truth);
        let m = PolyModel::fit(&samples, [2, 1, 1, 1]).unwrap();
        assert!(m.training_rms() < 1e-8, "rms = {}", m.training_rms());
        let got = m.eval(3.0, 75.0, 50.0, 1.05);
        let want = truth(3.0, 75.0, 50.0, 1.05);
        assert!((got - want).abs() < 1e-6, "{got} vs {want}");
    }

    #[test]
    fn auto_fit_raises_orders_until_accurate() {
        // Mildly nonlinear in Fo; auto fit should reach a small residual.
        let truth = |fo: f64, t: f64, temp: f64, v: f64| {
            35.0 * (1.0 + fo).ln() + 0.2 * t + 0.03 * temp - 25.0 * (v - 1.0)
        };
        let samples = synth(truth);
        let m = PolyModel::fit_auto(&samples, [3, 3, 2, 2], 0.005).unwrap();
        let mean: f64 = samples.iter().map(|s| s.value).sum::<f64>() / samples.len() as f64;
        assert!(
            m.training_rms() < 0.02 * mean,
            "rms {} vs mean {mean}",
            m.training_rms()
        );
        assert!(m.orders()[0] >= 2, "Fo order should have been raised");
    }

    #[test]
    fn constant_variables_get_order_zero() {
        // Temperature and VDD fixed: auto fit must not blow up.
        let samples: Vec<Sample> = [0.5, 1.0, 2.0, 4.0]
            .iter()
            .flat_map(|&fo| {
                [20.0, 60.0, 150.0].iter().map(move |&t_in| Sample {
                    fo,
                    t_in,
                    temperature: 25.0,
                    vdd: 1.2,
                    value: 10.0 + 5.0 * fo + 0.1 * t_in,
                })
            })
            .collect();
        let m = PolyModel::fit_auto(&samples, [3, 3, 2, 2], 0.01).unwrap();
        assert_eq!(m.orders()[2], 0);
        assert_eq!(m.orders()[3], 0);
        assert!((m.eval(3.0, 100.0, 25.0, 1.2) - 35.0).abs() < 1e-6);
    }

    #[test]
    fn serde_roundtrip() {
        let samples = synth(|fo, t, _, _| 5.0 + fo + 0.1 * t);
        let m = PolyModel::fit(&samples, [1, 1, 0, 0]).unwrap();
        let js = serde_json::to_string(&m).unwrap();
        let back: PolyModel = serde_json::from_str(&js).unwrap();
        assert_eq!(back, m);
        assert_eq!(
            back.eval(2.0, 50.0, 25.0, 1.0),
            m.eval(2.0, 50.0, 25.0, 1.0)
        );
    }

    #[test]
    fn empty_fit_is_an_error() {
        assert_eq!(PolyModel::fit(&[], [1, 1, 1, 1]), Err(FitError::NoSamples));
        assert_eq!(
            PolyModel::fit_auto(&[], [3, 3, 2, 2], 0.01),
            Err(FitError::NoSamples)
        );
    }

    #[test]
    fn constant_variable_with_order_is_an_error() {
        let samples: Vec<Sample> = (0..8)
            .map(|i| Sample {
                fo: 1.0 + i as f64,
                t_in: 50.0,
                temperature: 25.0,
                vdd: 1.2,
                value: 10.0 + i as f64,
            })
            .collect();
        assert_eq!(
            PolyModel::fit(&samples, [1, 1, 0, 0]),
            Err(FitError::ConstantVariable { var: 1, order: 1 })
        );
    }

    #[test]
    fn compiled_corner_matches_eval_bitwise() {
        let truth = |fo: f64, t: f64, temp: f64, v: f64| {
            18.0 + 6.5 * fo + 0.3 * fo * fo + 0.12 * t + 0.04 * temp - 22.0 * (v - 1.0)
                + 0.02 * fo * t
                + 0.001 * t * temp
        };
        let samples = synth(truth);
        let m = PolyModel::fit_auto(&samples, [3, 3, 2, 2], 1e-4).unwrap();
        for &(temp, vdd) in &[(25.0, 1.0), (125.0, 0.9), (-10.0, 1.3)] {
            let k = m.compile(temp, vdd);
            assert_eq!(k.shape().0, m.orders()[0] + 1);
            // Include out-of-range points: clamping must match too.
            for &fo in &[0.1, 0.5, 1.7, 4.2, 8.0, 20.0] {
                for &t_in in &[1.0, 10.0, 55.5, 120.0, 300.0, 900.0] {
                    let interp = m.eval(fo, t_in, temp, vdd);
                    let compiled = k.eval(fo, t_in);
                    assert_eq!(
                        compiled.to_bits(),
                        interp.to_bits(),
                        "fo={fo} t_in={t_in} T={temp} VDD={vdd}: {compiled} vs {interp}"
                    );
                }
            }
        }
    }
}
