package repro.core

import repro.{Oracle, SparkSpec}
import repro.core.query.SqlGen
import repro.data.{Dataset, Workloads}

/** End-to-end correctness of every workload query: the Zidian (KBA) answer
  * must equal (a) the DuckDB oracle over the same inputs and (b) the
  * baseline SQL-over-NoSQL answer, at SF=0.002.
  */
class WorkloadOracleSpec extends SparkSpec {
  private val Sf = 0.002

  private lazy val envs: Map[String, repro.benchutil.Env] =
    Workloads.all.map(ds => ds.name -> SparkSpec.env(ds, Sf)).toMap

  private def checkDataset(ds: Dataset): Unit = {
    val env = envs(ds.name)
    for (wq <- ds.queries) {
      test(s"${ds.name} ${wq.q.name}: Zidian answer matches the DuckDB oracle") {
        val ans = env.zidian.answer(wq.q, env.baav, env.taav, spark)
        val sql = SqlGen.toSql(wq.q, ds.catalog)
        val tables = wq.q.atoms.map(_.rel).distinct.map(r => r -> env.taav.relation(r))
        Oracle.assertEquivalent(ans.df, sql, tables: _*)
      }

      test(s"${ds.name} ${wq.q.name}: Zidian and the baseline agree") {
        val ans = env.zidian.answer(wq.q, env.baav, env.taav, spark)
        val (baseDf, _) = env.baseline.answer(wq.q, env.taav)
        assert(Oracle.canon(ans.df) == Oracle.canon(baseDf))
      }
    }
  }

  Workloads.all.foreach(checkDataset)
}
