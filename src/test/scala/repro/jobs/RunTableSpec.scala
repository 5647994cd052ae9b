package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

// Plain AnyFunSuite: resolving a table number must not need Spark.
class RunTableSpec extends AnyFunSuite {

  test("tables 1-6 resolve; a missing or unknown number names the valid ones") {
    for (n <- 1 to 6) assert(RunTable.table(Array(n.toString)) == n)
    for (bad <- Seq(Array.empty[String], Array("7"), Array("0"), Array("x"), Array("1", "2"))) {
      val e = intercept[IllegalArgumentException](RunTable.table(bad))
      assert(e.getMessage.contains("1, 2, 3, 4, 5, 6"), e.getMessage)
    }
  }
}
