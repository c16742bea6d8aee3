package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.Oracle
import repro.exp.Experiments
import repro.lsh.{LSHModel, RandomHyperplaneLSH}

/** Output checks against references that do not run the code under test:
  * DuckDB for the bucket join, a driver-side brute force for top-N, and
  * protocol invariants for the training pairs. Each throws on a mismatch.
  */
object Checks {

  private def fail(what: String): Nothing = throw new AssertionError(what)

  private def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  private def cosine(a: Array[Double], b: Array[Double]): Double = {
    val na = math.sqrt(dot(a, a))
    val nb = math.sqrt(dot(b, b))
    if (na == 0.0 || nb == 0.0) 0.0 else dot(a, b) / (na * nb)
  }

  /** Bucket code of `v` in table `l`: bit k set iff v·h_k ≥ 0. */
  private def code(m: LSHModel, v: Array[Double], l: Int): Int =
    (0 until m.K).foldLeft(0)((c, k) => if (dot(v, m.planes(l)(k)) >= 0) c | (1 << k) else c)

  private def collectDr(df: DataFrame): Array[(Long, Array[Double])] =
    df.select("id", "dr").collect().map(r => (r.getLong(0), r.getSeq[Double](1).toArray))

  /** `signatures` equals the codes recomputed from the model's planes.
    * Returns (id, table) → code.
    */
  def signatures(spark: SparkSession, dr: DataFrame, m: LSHModel): Map[(Long, Int), Int] = {
    val got = RandomHyperplaneLSH.signatures(spark, dr, m).collect()
      .map(r => ((r.getLong(0), r.getInt(1)), r.getInt(2))).toMap
    val exp = collectDr(dr).flatMap { case (id, v) => (0 until m.L).map(l => ((id, l), code(m, v, l))) }.toMap
    if (got != exp) fail(s"signatures differ from the codes of the model's planes in ${exp.count(e => got.get(e._1) != Some(e._2))} rows")
    got
  }

  /** `candidatePairs` equals DuckDB's distinct equi-join of the two
    * signature tables on (table, code).
    */
  def bucketJoin(spark: SparkSession, cands: DataFrame, drA: DataFrame, drB: DataFrame, m: LSHModel): Unit = {
    def sig(df: DataFrame) =
      RandomHyperplaneLSH.signatures(spark, df, m).select(col("id"), col("table").as("tbl"), col("code"))
    Oracle.assertEquivalent(cands.select("idA", "idB"),
      "SELECT DISTINCT a.id AS idA, b.id AS idB FROM sa a JOIN sb b ON a.tbl = b.tbl AND a.code = b.code",
      "sa" -> sig(drA), "sb" -> sig(drB))
  }

  /** Top-N lists against a brute force: every B within Hamming distance
    * `mp` of the A-tuple's code in some table, ranked by cosine of the
    * DRs with `idB` as tie-break. Returns the reference recall.
    */
  def topN(
      cands: DataFrame, drA: DataFrame, drB: DataFrame, m: LSHModel, mp: Int, n: Int, gold: Set[(Long, Long)],
  ): Double = {
    val as = collectDr(drA)
    val bs = collectDr(drB)
    val codesB = bs.map { case (_, v) => (0 until m.L).map(l => code(m, v, l)) }
    val ref: Map[Long, Seq[(Long, Double)]] = as.map { case (idA, va) =>
      val ca = (0 until m.L).map(l => code(m, va, l))
      val near = bs.indices.filter(j => (0 until m.L).exists(l => Integer.bitCount(ca(l) ^ codesB(j)(l)) <= mp))
      idA -> near.map(j => (bs(j)._1, cosine(va, bs(j)._2)))
        .sortBy { case (idB, s) => (-s, idB) }.take(n).toSeq
    }.filter(_._2.nonEmpty).toMap
    val got = cands.collect().groupBy(_.getAs[Long]("idA")).map { case (a, rs) =>
      a -> rs.map(r => (r.getAs[Long]("idB"), r.getAs[Double]("sim"))).sortBy { case (idB, s) => (-s, idB) }.toSeq
    }
    if (got.keySet != ref.keySet) fail(s"top-N covers ${got.size} A-tuples, the reference ${ref.size}")
    ref.foreach { case (a, exp) =>
      val g = got(a)
      val same = g.size == exp.size && g.zip(exp).forall { case ((b1, s1), (b2, s2)) =>
        b1 == b2 && math.abs(s1 - s2) <= 1e-12
      }
      if (!same) fail(s"top-N of A-tuple $a: got ${g.take(3)}…, reference ${exp.take(3)}…")
    }
    if (gold.isEmpty) 1.0
    else ref.iterator.map { case (a, l) => l.count { case (b, _) => gold((a, b)) } }.sum.toDouble / gold.size
  }

  /** The Table 4 protocol: `matches × (1 + negRatio)` pairs, the
    * positives are exactly the gold pairs, no negative is a gold pair, and
    * each feature is the per-attribute cosine of the pair's vectors.
    */
  def trainingPairs(p: Experiments.Prepared, gold: Set[(Long, Long)], negRatio: Int): Unit = {
    if (p.pairs.size != gold.size * (1 + negRatio))
      fail(s"${p.pairs.size} training pairs, expected ${gold.size} × (1 + $negRatio)")
    val (pos, neg) = p.pairs.partition(_.label == 1.0)
    if (pos.map(q => (q.a, q.b)).toSet != gold || pos.size != gold.size) fail("positives differ from the gold pairs")
    if (neg.exists(q => q.label != 0.0 || gold((q.a, q.b)))) fail("a negative is a gold pair or mislabelled")
    if (p.labels != p.pairs.map(_.label)) fail("labels differ from the pairs' labels")
    p.pairs.indices.foreach { i =>
      val (va, vb) = (p.vecsA(p.pairs(i).a), p.vecsB(p.pairs(i).b))
      val exp = va.indices.map(k => cosine(va(k), vb(k)))
      if (exp.zip(p.cosFeats(i)).exists { case (x, y) => math.abs(x - y) > 1e-12 }) fail(s"features of pair $i differ from the cosines")
    }
  }
}

