package repro.kv

import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {

  private def metrics(gets: Long, values: Long): KVMetrics = {
    val m = new KVMetrics
    m.addGets(gets); m.addValues(values)
    m
  }

  test("commMB assumes 8 bytes per cell") {
    val m = new KVMetrics
    m.addComm(1_000_000)
    assert(m.commMB == 8.0)
  }

  test("storageSeconds divides across workers (parallel scalability, Thm 8)") {
    val m = metrics(1000, 10000)
    val t4 = Backend.SoH.storageSeconds(m, 4)
    val t8 = Backend.SoH.storageSeconds(m, 8)
    assert(math.abs(t4 / t8 - 2.0) < 1e-9)
  }

  test("backend ordering matches the paper: SoK < SoC < SoH") {
    val m = metrics(100000, 1000000)
    val t = Backend.all.map(b => b.name -> b.storageSeconds(m, 8)).toMap
    assert(t("SoK") < t("SoC") && t("SoC") < t("SoH"))
  }

  test("storageSeconds is linear in gets and values") {
    val b = Backend.SoC
    val t1 = b.storageSeconds(metrics(100, 0), 1)
    val t2 = b.storageSeconds(metrics(200, 0), 1)
    assert(math.abs(t2 - 2 * t1) < 1e-12)
    val v1 = b.storageSeconds(metrics(0, 100), 1)
    val v2 = b.storageSeconds(metrics(0, 300), 1)
    assert(math.abs(v2 - 3 * v1) < 1e-12)
  }

  test("more workers never slow a backend down") {
    val m = metrics(12345, 67890)
    for (b <- Backend.all; p <- 1 until 16) {
      assert(b.storageSeconds(m, p + 1) < b.storageSeconds(m, p))
    }
  }

  test("scans counts both store kinds") {
    val m = new KVMetrics
    m.kvScans = 2; m.taavScans = 3
    assert(m.scans == 5)
  }

  test("toString formats a summary") {
    assert(metrics(1, 2).toString.contains("gets=1"))
  }
}
