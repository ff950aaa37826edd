package repro.core.scanfree

import repro.core.model.{Attr, BaaVSchema, KVSchema}
import repro.core.query.{AttrClasses, Query}
import scala.collection.mutable

/** Where the value of a key attribute comes from when applying rule (c)
  * of the GET chase (§6.1): a constant of the query, or an attribute that
  * an earlier chase step made available.
  */
sealed trait Source
final case class ConstSrc(v: String, attr: Attr) extends Source
final case class StepSrc(stepId: Int, attr: Attr) extends Source

/** One application of rule (c): fetch `~S` for `alias` using the recorded
  * key sources — the `T_i` of Example 7's chasing sequence.
  */
final case class ChaseStep(id: Int, alias: String, kv: KVSchema, keySources: Seq[(String, Source)])

/** The result of chasing `GET(Q, ~𝐑)` (§6.1).
  *
  * @param get       retrievable attributes `GET(Q, ~𝐑)`
  * @param steps     the chasing sequence (rule-(c) applications, in order)
  * @param derivedBy for each non-constant attribute of GET, the source
  *                  supplying its value
  * @param stepOut   attributes available in the frame produced by a step's
  *                  plan (its inputs' attributes plus the fetched ones)
  */
final case class ChaseResult(
    get: Set[Attr],
    steps: Seq[ChaseStep],
    derivedBy: Map[Attr, Source],
    stepOut: Map[Int, Set[Attr]],
) {
  /** Retrievable columns of one alias. */
  def getCols(alias: String): Set[String] = get.collect { case Attr(`alias`, c) => c }

  /** Steps fetching data for `alias`. */
  def stepsFor(alias: String): Seq[ChaseStep] = steps.filter(_.alias == alias)
}

/** The GET chase of §6.1:
  *  (a) constant attributes `X^Q_C` are in GET;
  *  (b) equality transitivity propagates GET membership within a class;
  *  (c) if the key X of `~R⟨X,Y⟩` (for some alias of its relation) is in
  *      GET, then Y joins GET.
  * Every applicable (alias, KV schema) pair is recorded as a step so plan
  * generation (§6.2) can interpret the sequence as ∝/⋈ operations.
  */
object Chase {

  def run(q: Query, schema: BaaVSchema): ChaseResult = {
    val cls = new AttrClasses(q)
    val get = mutable.Set.empty[Attr]
    val derived = mutable.Map.empty[Attr, Source]
    val stepOut = mutable.Map.empty[Int, Set[Attr]]
    val steps = mutable.ArrayBuffer.empty[ChaseStep]
    val applied = mutable.Set.empty[(String, String)]

    // Rules (a) + (b): constant classes are retrievable.
    for (a <- cls.allAttrs; v <- cls.constOf(a)) {
      get += a
      derived(a) = ConstSrc(v, a)
    }

    def addAttr(a: Attr, src: Source): Unit =
      if (!get.contains(a)) {
        get += a
        derived(a) = src
        // rule (b): propagate through the equality class.
        for (m <- cls.members(a) if !get.contains(m)) { get += m; derived(m) = src }
      }

    var changed = true
    while (changed) {
      changed = false
      for (at <- q.atoms; kv <- schema.forRel(at.rel) if !applied((at.alias, kv.name))) {
        val keyAttrs = kv.key.map(c => Attr(at.alias, c))
        if (keyAttrs.forall(get.contains)) {
          applied += ((at.alias, kv.name))
          val sources = kv.key.map { c =>
            val ka = Attr(at.alias, c)
            val src = cls.constOf(ka) match {
              case Some(v) => ConstSrc(v, ka)
              case None    => derived(ka)
            }
            c -> src
          }
          val id = steps.size
          val inAttrs: Set[Attr] = sources.flatMap {
            case (_, StepSrc(sid, a)) => stepOut(sid) + a
            case (_, ConstSrc(_, _))  => Set.empty[Attr]
          }.toSet
          val fetched = kv.attrs.map(c => Attr(at.alias, c)).toSet
          steps += ChaseStep(id, at.alias, kv, sources)
          stepOut(id) = inAttrs ++ fetched
          fetched.foreach(a => addAttr(a, StepSrc(id, a)))
          changed = true
        }
      }
    }
    ChaseResult(get.toSet, steps.toSeq, derived.toMap, stepOut.toMap)
  }
}
