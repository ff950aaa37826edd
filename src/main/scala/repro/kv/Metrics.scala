package repro.kv

/** Counters of the simulated storage-layer access of one query evaluation.
  *
  * Mirrors the measurements of Table 2 (§9, Exp-1):
  *  - `gets`           — number of simulated `get` invocations (a TaaV scan
  *                       costs one get per tuple, a BaaV scan one get per
  *                       keyed block, a BaaV point access one get per
  *                       requested key — §2, §3);
  *  - `valuesAccessed` — `#data`: cells (tuples × attributes) retrieved
  *                       from the storage layer;
  *  - `commCells`      — cells shipped between the storage and SQL layers
  *                       (frontier keys shipped down + blocks/tuples
  *                       shipped up);
  *  - `kvScans`/`taavScans` — full-instance scans (zero for scan-free
  *                       plans, Proposition 7).
  */
final class KVMetrics {
  var gets: Long = 0L
  var valuesAccessed: Long = 0L
  var commCells: Long = 0L
  var kvScans: Long = 0L
  var taavScans: Long = 0L

  def scans: Long = kvScans + taavScans

  /** Communication volume, assuming 8 bytes per cell. */
  def commMB: Double = commCells * 8.0 / 1e6

  def addGets(n: Long): Unit = gets += n
  def addValues(n: Long): Unit = valuesAccessed += n
  def addComm(n: Long): Unit = commCells += n

  override def toString: String =
    f"gets=$gets%d #data=$valuesAccessed%d comm=$commMB%.2fMB scans=$scans%d"
}

/** Cost model of one KV backend of the SQL-over-NoSQL stack.
  *
  * The paper deploys SparkSQL over HBase (SoH), Kudu (SoK) and Cassandra
  * (SoC); we cannot run those clusters, so each backend is a cost model
  * converting the access counters into simulated storage-layer seconds
  * (DESIGN.md §4). Parameters are chosen so the baseline ordering of
  * Table 2 (SoK < SoC < SoH) and rough ratios are preserved.
  */
final case class Backend(name: String, getOverheadUs: Double, perValueUs: Double) {

  /** Simulated storage-access seconds over `workers` parallel workers. */
  def storageSeconds(m: KVMetrics, workers: Int): Double =
    (m.gets * getOverheadUs + m.valuesAccessed * perValueUs) / 1e6 / workers
}

object Backend {
  /** SparkSQL-over-HBase: slow random gets (paper: "HBase (SoH) is the
    * slowest among the three").
    */
  val SoH = Backend("SoH", getOverheadUs = 800.0, perValueUs = 8.0)

  /** SparkSQL-over-Kudu: columnar storage optimized for scans. */
  val SoK = Backend("SoK", getOverheadUs = 120.0, perValueUs = 1.5)

  /** SparkSQL-over-Cassandra: in between. */
  val SoC = Backend("SoC", getOverheadUs = 400.0, perValueUs = 3.0)

  val all: Seq[Backend] = Seq(SoH, SoK, SoC)

  /** Number of simulated workers, mirroring the paper's 8-worker setup. */
  val DefaultWorkers = 8
}
