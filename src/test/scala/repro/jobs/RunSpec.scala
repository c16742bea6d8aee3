package repro.jobs

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments

class RunSpec extends AnyFunSuite {
  test("an unknown experiment name fails with a message listing the valid names") {
    val e = intercept[IllegalArgumentException](Run.main(Array("table99")))
    assert(e.getMessage.contains("table99"))
    Experiments.all.foreach(x => assert(e.getMessage.contains(x.name), e.getMessage))
  }
}
