package repro.lsh

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.nn.Linalg

/** Random-hyperplane LSH over tuple DRs (Section 4.2–4.3, Algorithm 4).
  *
  * Each of the L hash tables uses K random hyperplanes; a tuple's bucket
  * in table l is the K-bit sign pattern of its DR against those planes
  * (stored as an Int bitmask, K ≤ 30). Blocking is a *distributed
  * similarity join*: both tables' DRs are signed per partition, exploded
  * to (table, bucket) keys, and candidates come from a shuffle join on
  * the bucket key.
  */
final case class LSHModel(K: Int, L: Int, dim: Int, planes: Array[Array[Array[Double]]]) extends Serializable {
  require(K <= 30, "K must fit an Int bitmask")

  /** K-bit signature of `v` in hash table `l`: bit k set iff v·h_k ≥ 0. */
  def signature(v: Array[Double], l: Int): Int = {
    var code = 0
    var k = 0
    while (k < K) {
      if (Linalg.dot(v, planes(l)(k)) >= 0) code |= (1 << k)
      k += 1
    }
    code
  }
}

object RandomHyperplaneLSH {

  /** Draw K×L random unit-normal hyperplanes, deterministic in `seed`. */
  def model(dim: Int, k: Int, l: Int, seed: Long = 23): LSHModel = {
    val rng = new scala.util.Random(seed)
    LSHModel(k, l, dim,
      Array.fill(l, k)(Linalg.unit(Array.fill(dim)(rng.nextGaussian()))))
  }

  /** One row per (table, code) bucket a tuple occupies: its code in each
    * of the L hash tables and, for mp > 0, every code within Hamming
    * distance mp of it (the probes of Algorithm 5). The rows carry `cols`
    * of `df` (which must have a `dr` vector column), then `table`, `code`.
    */
  private[lsh] def buckets(spark: SparkSession, df: DataFrame, m: LSHModel, mp: Int, cols: Column*): DataFrame = {
    val bm = spark.sparkContext.broadcast(m)
    val codes = udf { (dr: Seq[Double]) =>
      val v = dr.toArray
      for {
        l <- 0 until bm.value.L
        c <- MultiProbeLSH.probeCodes(bm.value.signature(v, l), bm.value.K, mp)
      } yield (l, c)
    }
    val rows = df.select(cols :+ explode(codes(col("dr"))).as("tc"): _*)
    rows.select(rows.columns.init.map(col) ++ Seq(col("tc._1").as("table"), col("tc._2").as("code")): _*)
  }

  /** (id, table, code) rows for every tuple × hash table — the L-fold
    * index of Algorithm 4. `df` must carry `id` and a `dr` vector column.
    */
  def signatures(spark: SparkSession, df: DataFrame, m: LSHModel): DataFrame =
    buckets(spark, df, m, 0, col("id"))

  /** Candidate pairs across two relations: tuples sharing a bucket in any
    * hash table (deduplicated). This is the blocking output on which the
    * classifier is invoked.
    */
  def candidatePairs(spark: SparkSession, drA: DataFrame, drB: DataFrame, m: LSHModel): DataFrame = {
    val sa = signatures(spark, drA, m).withColumnRenamed("id", "idA")
    val sb = signatures(spark, drB, m).withColumnRenamed("id", "idB")
    sa.join(sb, Seq("table", "code")).select("idA", "idB").distinct()
  }

  /** Blocking-quality metrics of Section 5.4.
    *
    * @return (pair completeness, reduction ratio) where
    *         PC = |candidates ∩ gold| / |gold| and
    *         RR = |candidates| / |A × B| (smaller = more reduction, the
    *         paper's Figure-10 convention).
    */
  def blockingMetrics(candidates: DataFrame, matches: DataFrame, nA: Long, nB: Long): (Double, Double) = {
    val nCand = candidates.count()
    val pc = MultiProbeLSH.recall(candidates, matches)
    val rr = nCand.toDouble / (nA.toDouble * nB.toDouble)
    (pc, rr)
  }
}
