package repro.lsh

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Multi-probe LSH blocking (Section 4.4, Algorithm 5): instead of adding
  * hash tables, each query tuple also probes the buckets whose codes are
  * within Hamming distance `mp` of its own, then keeps only its top-N
  * most-similar candidates — fewer tables, fewer classifier invocations.
  */
object MultiProbeLSH {

  /** All codes within Hamming distance ≤ mp of `code` (including itself).
    * For mp ≤ 2 and K ≤ 30 this is 1 + K + K(K-1)/2 codes.
    */
  def probeCodes(code: Int, k: Int, mp: Int): Seq[Int] = {
    require(mp >= 0 && mp <= 2, "probe sequences implemented for mp <= 2")
    val d0 = Seq(code)
    val d1 = if (mp >= 1) (0 until k).map(i => code ^ (1 << i)) else Nil
    val d2 =
      if (mp >= 2)
        for { i <- 0 until k; j <- (i + 1) until k } yield code ^ (1 << i) ^ (1 << j)
      else Nil
    d0 ++ d1 ++ d2
  }

  /** Candidate pairs where each A-tuple probes `mp`-perturbed buckets of
    * every hash table and keeps its top-N candidates by cosine similarity
    * of the DRs. Both sides' bucket rows carry their DR through the join
    * on (table, code), where the cosine is computed distributed.
    *
    * @return DataFrame(idA, idB, sim)
    */
  def topNCandidates(
      spark: SparkSession,
      drA: DataFrame,
      drB: DataFrame,
      m: LSHModel,
      mp: Int,
      topN: Int,
  ): DataFrame = {
    val sa = RandomHyperplaneLSH.buckets(spark, drA, m, mp, col("id").as("idA"), col("dr").as("drA"))
    val sb = RandomHyperplaneLSH.buckets(spark, drB, m, 0, col("id").as("idB"), col("dr").as("drB"))
    val cos = udf { (a: Seq[Double], b: Seq[Double]) =>
      repro.nn.Linalg.cosine(a.toArray, b.toArray)
    }
    val joined = sa.join(sb, Seq("table", "code"))
      .select(col("idA"), col("idB"), cos(col("drA"), col("drB")).as("sim"))
      .groupBy("idA", "idB").agg(max("sim").as("sim"))
    val w = Window.partitionBy("idA").orderBy(col("sim").desc, col("idB"))
    joined.withColumn("rank", row_number().over(w))
      .where(col("rank") <= topN)
      .drop("rank")
  }

  /** Gold pairs among `candidates`: |candidates ⋈ matches| on (idA, idB). */
  def goldHits(candidates: DataFrame, matches: DataFrame): Long =
    candidates.join(matches,
      candidates("idA") === matches("idA") && candidates("idB") === matches("idB")).count()

  /** Recall of the gold matches among the retained candidates (the pair
    * completeness of Section 5.4 when `candidates` is a blocking output).
    */
  def recall(candidates: DataFrame, matches: DataFrame): Double = {
    val hit = goldHits(candidates, matches)
    val nGold = matches.count()
    if (nGold == 0) 1.0 else hit.toDouble / nGold
  }
}
