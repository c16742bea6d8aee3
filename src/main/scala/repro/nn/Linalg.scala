package repro.nn

/** Minimal dense linear algebra for the from-scratch neural substrate.
  *
  * Everything is `Array[Double]`; matrices are row-major [[Mat]]. The
  * networks in this repo are small (d<=300, hidden<=150, batches of 16),
  * so clarity beats BLAS here. All randomness is seeded for determinism.
  */
object Linalg {

  /** Dot product of two equal-length vectors. */
  def dot(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"dot: ${a.length} vs ${b.length}")
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** Euclidean norm. */
  def norm(a: Array[Double]): Double = math.sqrt(dot(a, a))

  /** Cosine similarity; 0.0 when either vector is all-zero. */
  def cosine(a: Array[Double], b: Array[Double]): Double = {
    val na = norm(a); val nb = norm(b)
    if (na == 0.0 || nb == 0.0) 0.0 else dot(a, b) / (na * nb)
  }

  /** a + b, new array. */
  def add(a: Array[Double], b: Array[Double]): Array[Double] = {
    require(a.length == b.length)
    Array.tabulate(a.length)(i => a(i) + b(i))
  }

  /** a - b, new array. */
  def sub(a: Array[Double], b: Array[Double]): Array[Double] = {
    require(a.length == b.length)
    Array.tabulate(a.length)(i => a(i) - b(i))
  }

  /** a * s, new array. */
  def scale(a: Array[Double], s: Double): Array[Double] =
    Array.tabulate(a.length)(i => a(i) * s)

  /** In-place a += b * s. */
  def axpy(a: Array[Double], b: Array[Double], s: Double): Unit = {
    require(a.length == b.length)
    var i = 0
    while (i < a.length) { a(i) += b(i) * s; i += 1 }
  }

  /** Element-wise mean of a non-empty collection of equal-length vectors. */
  def mean(vs: Seq[Array[Double]]): Array[Double] = {
    require(vs.nonEmpty, "mean of empty sequence")
    val out = new Array[Double](vs.head.length)
    vs.foreach(v => axpy(out, v, 1.0))
    scale(out, 1.0 / vs.size)
  }

  def sigmoid(x: Double): Double =
    if (x >= 0) 1.0 / (1.0 + math.exp(-x))
    else { val e = math.exp(x); e / (1.0 + e) }

  /** Normalize to unit length (zero vector stays zero). */
  def unit(a: Array[Double]): Array[Double] = {
    val n = norm(a)
    if (n == 0.0) a.clone() else scale(a, 1.0 / n)
  }
}

/** Row-major dense matrix with seeded initializers. */
final class Mat(val rows: Int, val cols: Int, val data: Array[Double]) extends Serializable {
  require(data.length == rows * cols, s"Mat ${rows}x$cols needs ${rows * cols} values, got ${data.length}")

  def apply(r: Int, c: Int): Double = data(r * cols + c)
  def update(r: Int, c: Int, v: Double): Unit = data(r * cols + c) = v

  /** y = A x */
  def matvec(x: Array[Double]): Array[Double] = {
    require(x.length == cols, s"matvec: ${rows}x$cols * ${x.length}")
    val y = new Array[Double](rows)
    var r = 0
    while (r < rows) {
      var s = 0.0; var c = 0; val off = r * cols
      while (c < cols) { s += data(off + c) * x(c); c += 1 }
      y(r) = s; r += 1
    }
    y
  }

  /** y = A^T x (no explicit transpose materialized). */
  def tmatvec(x: Array[Double]): Array[Double] = {
    require(x.length == rows, s"tmatvec: (${rows}x$cols)^T * ${x.length}")
    val y = new Array[Double](cols)
    var r = 0
    while (r < rows) {
      val xr = x(r); val off = r * cols; var c = 0
      while (c < cols) { y(c) += data(off + c) * xr; c += 1 }
      r += 1
    }
    y
  }

  /** In-place rank-1 update: A += u v^T (u has `rows` entries, v `cols`). */
  def addOuter(u: Array[Double], v: Array[Double]): Unit = {
    require(u.length == rows && v.length == cols)
    var r = 0
    while (r < rows) {
      val ur = u(r); val off = r * cols; var c = 0
      while (c < cols) { data(off + c) += ur * v(c); c += 1 }
      r += 1
    }
  }

  def row(r: Int): Array[Double] = java.util.Arrays.copyOfRange(data, r * cols, (r + 1) * cols)

  def setRow(r: Int, v: Array[Double]): Unit = {
    require(v.length == cols); System.arraycopy(v, 0, data, r * cols, cols)
  }

  def copy(): Mat = new Mat(rows, cols, data.clone())
}

object Mat {
  def zeros(rows: Int, cols: Int): Mat = new Mat(rows, cols, new Array[Double](rows * cols))

  /** Xavier/Glorot uniform init, deterministic in `seed`. */
  def glorot(rows: Int, cols: Int, seed: Long): Mat = {
    val rng = new scala.util.Random(seed)
    val lim = math.sqrt(6.0 / (rows + cols))
    new Mat(rows, cols, Array.fill(rows * cols)((rng.nextDouble() * 2 - 1) * lim))
  }

  /** Gaussian init with given std, deterministic in `seed`. */
  def gaussian(rows: Int, cols: Int, std: Double, seed: Long): Mat = {
    val rng = new scala.util.Random(seed)
    new Mat(rows, cols, Array.fill(rows * cols)(rng.nextGaussian() * std))
  }
}
