package repro.nn

import org.scalatest.funsuite.AnyFunSuite

class LinalgSpec extends AnyFunSuite {
  private val eps = 1e-9

  test("dot of orthogonal unit vectors is zero") {
    assert(Linalg.dot(Array(1.0, 0.0), Array(0.0, 1.0)) === 0.0)
  }

  test("dot of a vector with itself is squared norm") {
    val v = Array(1.0, 2.0, 3.0)
    assert(math.abs(Linalg.dot(v, v) - 14.0) < eps)
  }

  test("dot rejects length mismatch") {
    intercept[IllegalArgumentException](Linalg.dot(Array(1.0), Array(1.0, 2.0)))
  }

  test("norm of 3-4 vector is 5") {
    assert(math.abs(Linalg.norm(Array(3.0, 4.0)) - 5.0) < eps)
  }

  test("cosine of identical vectors is 1") {
    assert(math.abs(Linalg.cosine(Array(1.0, 2.0), Array(1.0, 2.0)) - 1.0) < eps)
  }

  test("cosine of opposite vectors is -1") {
    assert(math.abs(Linalg.cosine(Array(1.0, 2.0), Array(-1.0, -2.0)) + 1.0) < eps)
  }

  test("cosine with a zero vector is 0 (not NaN)") {
    assert(Linalg.cosine(Array(0.0, 0.0), Array(1.0, 2.0)) === 0.0)
  }

  test("cosine is scale invariant") {
    val rng = new scala.util.Random(1)
    (1 to 50).foreach { _ =>
      val v = Array.fill(4)(rng.nextDouble() * 10 - 5)
      val s = rng.nextDouble() * 9.9 + 0.1
      if (Linalg.norm(v) > 1e-6) {
        val w = Array(0.3, -1.0, 2.0, 0.5)
        assert(math.abs(Linalg.cosine(v, w) - Linalg.cosine(Linalg.scale(v, s), w)) < 1e-6)
      }
    }
  }

  test("add and sub are inverses") {
    val a = Array(1.0, 2.0); val b = Array(0.5, -0.5)
    assert(Linalg.sub(Linalg.add(a, b), b).sameElements(a))
  }

  test("scale multiplies every element") {
    assert(Linalg.scale(Array(1.0, -2.0), 3.0).sameElements(Array(3.0, -6.0)))
  }

  test("axpy accumulates in place") {
    val a = Array(1.0, 1.0)
    Linalg.axpy(a, Array(2.0, 3.0), 0.5)
    assert(a.sameElements(Array(2.0, 2.5)))
  }

  test("mean of two vectors is midpoint") {
    assert(Linalg.mean(Seq(Array(0.0, 2.0), Array(2.0, 4.0))).sameElements(Array(1.0, 3.0)))
  }

  test("mean of empty sequence rejects") {
    intercept[IllegalArgumentException](Linalg.mean(Seq.empty))
  }

  test("sigmoid at 0 is 0.5 and is bounded") {
    assert(math.abs(Linalg.sigmoid(0.0) - 0.5) < eps)
    assert(Linalg.sigmoid(100.0) <= 1.0 && Linalg.sigmoid(-100.0) >= 0.0)
  }

  test("sigmoid is numerically stable at extremes") {
    assert(!Linalg.sigmoid(-1000.0).isNaN && !Linalg.sigmoid(1000.0).isNaN)
  }

  test("unit produces unit-norm vectors and keeps zero at zero") {
    assert(math.abs(Linalg.norm(Linalg.unit(Array(3.0, 4.0))) - 1.0) < eps)
    assert(Linalg.unit(Array(0.0, 0.0)).forall(_ == 0.0))
  }

  test("matvec computes A x") {
    val a = new Mat(2, 3, Array(1, 2, 3, 4, 5, 6).map(_.toDouble))
    assert(a.matvec(Array(1.0, 0.0, -1.0)).sameElements(Array(-2.0, -2.0)))
  }

  test("tmatvec computes A^T x") {
    val a = new Mat(2, 3, Array(1, 2, 3, 4, 5, 6).map(_.toDouble))
    assert(a.tmatvec(Array(1.0, 1.0)).sameElements(Array(5.0, 7.0, 9.0)))
  }

  test("tmatvec agrees with explicit transpose on random input") {
    val rng = new scala.util.Random(2)
    (1 to 50).foreach { _ =>
      val a = new Mat(2, 3, Array.fill(6)(rng.nextDouble() * 6 - 3))
      val x = Array(0.7, -1.3)
      val expected = Array.tabulate(3)(c => a(0, c) * x(0) + a(1, c) * x(1))
      a.tmatvec(x).zip(expected).foreach { case (g, e) => assert(math.abs(g - e) < 1e-9) }
    }
  }

  test("addOuter adds u v^T") {
    val a = Mat.zeros(2, 2)
    a.addOuter(Array(1.0, 2.0), Array(3.0, 4.0))
    assert(a.data.sameElements(Array(3.0, 4.0, 6.0, 8.0)))
  }

  test("row/setRow round-trip") {
    val a = Mat.zeros(3, 2)
    a.setRow(1, Array(5.0, 6.0))
    assert(a.row(1).sameElements(Array(5.0, 6.0)))
    assert(a.row(0).forall(_ == 0.0))
  }

  test("Mat constructor validates data length") {
    intercept[IllegalArgumentException](new Mat(2, 2, Array(1.0)))
  }

  test("glorot init is deterministic in seed and bounded") {
    val a = Mat.glorot(4, 5, 7); val b = Mat.glorot(4, 5, 7); val c = Mat.glorot(4, 5, 8)
    assert(a.data.sameElements(b.data))
    assert(!a.data.sameElements(c.data))
    val lim = math.sqrt(6.0 / 9)
    assert(a.data.forall(v => math.abs(v) <= lim))
  }

  test("gaussian init is deterministic in seed") {
    assert(Mat.gaussian(3, 3, 0.1, 5).data.sameElements(Mat.gaussian(3, 3, 0.1, 5).data))
  }

  test("Mat copy is independent of the original") {
    val a = Mat.zeros(2, 2)
    val b = a.copy()
    b(0, 0) = 9.0
    assert(a(0, 0) == 0.0)
  }
}
