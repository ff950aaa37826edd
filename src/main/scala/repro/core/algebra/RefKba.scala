package repro.core.algebra

/** Pure in-memory reference semantics of the KBA algebra (§4.2).
  *
  * Values are strings; an instance is a map from key tuples to blocks of
  * value tuples (bags, as lists). This is the executable specification
  * that the executor's `∝` and `⋈` ([[repro.core.planner.Executor]]) are
  * property-tested against.
  */
object RefKba {

  /** A KV instance of `⟨key, value⟩` with blocks as bags of value tuples. */
  final case class Inst(key: Seq[String], value: Seq[String],
                        blocks: Map[Seq[String], Seq[Seq[String]]]) {
    def attrs: Seq[String] = key ++ value

    /** Relational version: flatten every block (§4.1). */
    def flatten: Seq[Map[String, String]] =
      blocks.toSeq.flatMap { case (k, b) =>
        b.map(v => (key.zip(k) ++ value.zip(v)).toMap)
      }

    /** deg(~D): max block size. */
    def degree: Int = if (blocks.isEmpty) 0 else blocks.valuesIterator.map(_.size).max
  }

  /** Mapping of a relation (rows as attr→value maps) onto `⟨key, value⟩`. */
  def fromRows(rows: Seq[Map[String, String]], key: Seq[String], value: Seq[String]): Inst = {
    val grouped = rows.groupBy(r => key.map(r))
    Inst(key, value, grouped.view.mapValues(_.map(r => value.map(r))).toMap)
  }

  /** Natural join of two sets of rows on their common attributes. */
  private def joinRows(l: Seq[Map[String, String]], r: Seq[Map[String, String]],
                       on: Seq[String]): Seq[Map[String, String]] =
    for {
      a <- l
      b <- r
      if on.forall(c => a(c) == b(c))
    } yield a ++ b

  /** Extension `~D1 ∝ ~D2` (§4.2): requires `D2.key ⊆ D1.attrs`; the result
    * is the mapping of `D1 ⋈_{Y'} D2` on `⟨attrs(D1), value(D2) \ attrs(D1)⟩`.
    */
  def extend(d1: Inst, d2: Inst): Inst = {
    require(d2.key.forall(d1.attrs.contains), "extension: d2.key must be contained in d1 attrs")
    val newValue = d2.value.filterNot(d1.attrs.contains)
    // Project the right side to key ++ fresh values before joining, so
    // overlapping non-key attributes of d2 do not clobber d1's.
    val rhs = d2.flatten.map(r => r.view.filterKeys((d2.key ++ newValue).contains).toMap)
    fromRows(joinRows(d1.flatten, rhs, d2.key), d1.attrs, newValue)
  }

  /** Shift `~D ↑ X'` (§4.2): regroup by `newKey ⊆ attrs`, preserving the
    * relational version.
    */
  def shift(d: Inst, newKey: Seq[String]): Inst = {
    require(newKey.forall(d.attrs.contains), "shift: new key must be contained in attrs")
    fromRows(d.flatten, newKey, d.attrs.filterNot(newKey.contains))
  }

  /** Join `~D1 ⋈_X ~D2` (§4.2): the mapping of the relational join on
    * `⟨key1 ∪ key2, rest⟩`. `on` must equal the common attributes.
    */
  def join(d1: Inst, d2: Inst, on: Seq[String]): Inst = {
    require(on.forall(a => d1.attrs.contains(a) && d2.attrs.contains(a)),
            "join attrs must appear on both sides")
    val key = (d1.key ++ d2.key).distinct
    val all = (d1.attrs ++ d2.attrs).distinct
    fromRows(joinRows(d1.flatten, d2.flatten, on), key, all.filterNot(key.contains))
  }

  /** Set union of the relational versions, regrouped on `d1.key` (enabled by
    * shift-alignment, §4.2).
    */
  def union(d1: Inst, d2: Inst): Inst = {
    require(d1.attrs.toSet == d2.attrs.toSet, "union: schemas must align (use shift)")
    val rows = (d1.flatten ++ shift(d2, d1.key).flatten).distinct
    fromRows(rows, d1.key, d1.value)
  }

  /** Set difference of the relational versions, regrouped on `d1.key`. */
  def diff(d1: Inst, d2: Inst): Inst = {
    require(d1.attrs.toSet == d2.attrs.toSet, "diff: schemas must align (use shift)")
    val right = shift(d2, d1.key).flatten.toSet
    fromRows(d1.flatten.distinct.filterNot(right.contains), d1.key, d1.value)
  }
}
