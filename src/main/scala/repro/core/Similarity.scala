package repro.core

import repro.nn.Linalg

/** Distributional similarity between tuple DRs (Section 2.3). */
object Similarity {

  /** Averaging DRs: cosine per aligned attribute → m-dim similarity vector. */
  def cosineVector(va: Array[Array[Double]], vb: Array[Array[Double]]): Array[Double] = {
    require(va.length == vb.length, s"attribute count mismatch: ${va.length} vs ${vb.length}")
    Array.tabulate(va.length)(k => Linalg.cosine(va(k), vb(k)))
  }

  /** Whole-tuple cosine over concatenated DRs — the similarity used for
    * the paper's negative-sampling threshold (Section 5.1).
    */
  def tupleCosine(va: Array[Array[Double]], vb: Array[Array[Double]]): Double =
    Linalg.cosine(va.flatten, vb.flatten)
}
