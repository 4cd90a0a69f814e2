"""Workload generators and their independent output oracles.

A workload turns a size and a seed into the `.cmg` text the engine reads,
plus an expectation derived from the generator's own choices. The oracles
compare a job's printed outputs (query CSV, entity CSVs, round-trip report)
with that expectation; they never ask the engine what the answer should be.

The seed permutes the order in which rows are declared inside every entity
block and draws the data values each workload lists; the engine only ever
sees the resulting text.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Optional


@dataclass(frozen=True)
class Expect:
    """What a correct job prints for one generated document."""

    query_rows: list[tuple[str, ...]]  # the query CSV body, in order
    entity_rows: dict[str, int]  # combined entity -> rows in its CSV
    roundtrip: dict[str, tuple[int, int, int, int, int]]
    # source table -> (rows_in, rows_recovered, gained, lost, new_rows)
    fk_everywhere: Optional[tuple[str, str]] = None  # (entity CSV, fk column) set on every row


@dataclass(frozen=True)
class Case:
    """One generated input: the document text and its expectation."""

    text: str
    source_rows: int
    expect: Expect


@dataclass(frozen=True)
class Outputs:
    """The user-visible artifacts of one job, as text."""

    query_csv: str
    entity_csvs: dict[str, str]
    roundtrip: str
    artifacts: tuple[str, ...]  # every other rendered output, for fingerprinting


@dataclass(frozen=True)
class Workload:
    name: str
    main: int
    half: int
    target: str  # source schema projected back for the round-trip report
    generate: Callable[[int, random.Random, ModuleType], Case]


def shuffle_rows(text: str, rng: random.Random) -> str:
    """Permute the ``row`` lines inside each entity block."""
    out: list[str] = []
    block: list[str] = []
    for line in text.splitlines(keepends=True):
        if line.lstrip().startswith("row "):
            block.append(line)
            continue
        if block:
            rng.shuffle(block)
            out.extend(block)
            block = []
        out.append(line)
    return "".join(out)


def _area(i: int) -> float:
    return round(15.0 + (i % 40) * 0.25, 2)


# -- commissioning -------------------------------------------------------------

def commissioning(rooms: int, rng: random.Random, generators: ModuleType) -> Case:
    """The scaled commissioning document with permuted row order.

    Every room has one IfcSpace, distribution element, sensor and property
    set; BRICK starts empty and the chase builds one Point per sensor.
    """
    text = shuffle_rows(generators.scaled_example1_document(rooms), rng)
    tags = [f"R{i:03d}" for i in range(1, rooms + 1)]
    return Case(
        text=text,
        source_rows=4 * rooms,
        expect=Expect(
            # spaceArea is checked as a number only: its values are the
            # engine generator's choice, the room/tag pairing is the rule's.
            query_rows=[(f"Room {t}", "*", f"TUC.245.77.{t}") for t in tags],
            entity_rows={"BRICK_Point": rooms, "Equipment": rooms, "Location": rooms},
            roundtrip={
                name: (rooms, rooms, 0, 0, 0)
                for name in ("IfcSpace", "IfcSensor", "IfcDistributionElement", "PropertySet")
            },
        ),
    )


# -- three_way ---------------------------------------------------------------

THREE_WAY_SCHEMAS = """\
schema IFC {
  entities IfcSpace IfcSensor IfcDistributionElement PropertySet
  foreign_keys
    hasPropertySet : IfcSensor -> PropertySet
    sensorAttachedTo : IfcSensor -> IfcDistributionElement
    elementInSpace : IfcDistributionElement -> IfcSpace
  attributes
    spaceName : IfcSpace -> String
    spaceArea : IfcSpace -> Double
    sensorName : IfcSensor -> String
    sensorType : IfcSensor -> String
    elementName : IfcDistributionElement -> String
    elementType : IfcDistributionElement -> String
    deviceId : PropertySet -> String
    psetName : PropertySet -> String
    serialNumber : PropertySet -> String
}

schema BRICK {
  entities Equipment Point Location Zone Meter SetPoint
  foreign_keys
    hasPoint : Equipment -> Point
    hasLocation : Equipment -> Location
    feeds : Equipment -> Zone
    isLocationOf : Location -> Equipment
    isPartOf : Location -> Zone
    hasLocation : Meter -> Location
    hasPoint : Zone -> SetPoint
  attributes
    equipmentName : Equipment -> String
    equipmentIdentifier : Equipment -> String
    equipmentType : Equipment -> String
    pointName : Point -> String
    pointType : Point -> String
    pointUnits : Point -> String
    timeseriesId : Point -> String
    locationName : Location -> String
    zoneName : Zone -> String
    energyConsumption : Meter -> Double
    setPointName : SetPoint -> String
    setPointValue : SetPoint -> Double
    setPointUnits : SetPoint -> String
}

schema REC {
  entities Person Lease Room
  foreign_keys
    leasee : Lease -> Person
    leaseOf : Lease -> Room
  attributes
    personName : Person -> String
    monthlyRent : Lease -> String
    leaseStart : Lease -> String
    energyRatePerKWh : Lease -> Double
    roomName : Room -> String
    roomArea : Room -> Double
}
"""

# Byte-identical to the extension and query of the three-way fixture.
THREE_WAY_RULES = """\
extension CombinedThreeWay {
  include IFC BRICK REC
  identify BRICK.Equipment = IFC.IfcDistributionElement
  identify BRICK.Location = IFC.IfcSpace
  identify REC.Room = IFC.IfcSpace
  constraints
    # unify locations across the three models by matching names
    forall l1 l2 : Location where l1.spaceName = l2.roomName -> l1 = l2
    forall l1 l2 : Location where l1.spaceName = l2.locationName -> l1 = l2
    # copy the design-side area into the property-management records
    forall l : Location -> l.roomArea = l.spaceArea
    # occupancy-driven setpoints: comfort when leased, energy-saving when vacant
    forall l : Lease where levenshtein(l.leasee.personName, "Vacant") > 0 -> l.leaseOf.isPartOf.hasPoint.setPointValue = 22
    forall l : Lease where l.leasee.personName = "Vacant" -> l.leaseOf.isPartOf.hasPoint.setPointValue = 26
    # align the two spatial relationships
    forall e : Equipment -> e.hasLocation = e.elementInSpace
}

# Final query (property management -> operations through the shared Location)
query TenantBilling : CombinedThreeWay {
  from lease : REC_Lease meter : BRICK_Meter
  where lease.leaseOf = meter.hasLocation
  attributes
    REC_personName -> lease.leasee.personName
    REC_roomName -> lease.leaseOf.roomName
    REC_roomArea -> lease.leaseOf.roomArea
    REC_monthlyRent -> lease.monthlyRent
    # current setpoints influenced by occupancy
    BRICK_zoneSetPoint -> lease.leaseOf.isPartOf.hasPoint.setPointValue
    BRICK_Equipment -> lease.leaseOf.isLocationOf.equipmentName
    # energy consumption from the room meter
    BRICK_energyUsed -> meter.energyConsumption
}
"""


def _energy(i: int) -> float:
    return round(120.0 + (i * 7 % 50) * 0.9, 1)


def three_way(rooms: int, rng: random.Random, generators: ModuleType) -> Case:
    """Scaled three-way billing: IFC, BRICK and REC rows for every room.

    Room names agree across the three models, so the two name-join rules
    merge 3n Location classes into n. The seed picks which fifth of the
    persons are "Vacant".
    """
    vacant = set(rng.sample(range(1, rooms + 1), rooms // 5))
    ids = [f"{i:03d}" for i in range(1, rooms + 1)]
    ifc_space, ifc_elem = [], []
    equipment, location, zone, meter, setpoint = [], [], [], [], []
    person, room, lease = [], [], []
    rows: list[tuple[str, ...]] = []
    for i, k in enumerate(ids, start=1):
        name = f"Room {k}"
        ifc_space.append(f'row sp_{k} {{ spaceName = "{name}" spaceArea = {_area(i)} }}')
        ifc_elem.append(
            f'row el_{k} {{ elementName = "Split AC R{k}" elementType = "AirConditioningUnit" '
            f"elementInSpace = sp_{k} }}"
        )
        equipment.append(
            f'row eq_{k} {{ equipmentName = "Split AC {name}" equipmentIdentifier = "AC-{k}" '
            f'equipmentType = "Split_System_Air_Conditioner" hasLocation = loc_{k} feeds = zn_{k} }}'
        )
        location.append(f'row loc_{k} {{ locationName = "{name}" isLocationOf = eq_{k} isPartOf = zn_{k} }}')
        zone.append(f'row zn_{k} {{ zoneName = "HVAC Zone {k}" hasPoint = stp_{k} }}')
        meter.append(f"row mt_{k} {{ energyConsumption = {_energy(i)} hasLocation = loc_{k} }}")
        setpoint.append(
            f'row stp_{k} {{ setPointName = "Cooling Setpoint {k}" setPointValue = null '
            f'setPointUnits = "°C" }}'
        )
        who = "Vacant" if i in vacant else f"Person {k}"
        person.append(f'row pr_{k} {{ personName = "{who}" }}')
        room.append(f'row rm_{k} {{ roomName = "{name}" roomArea = null }}')
        if i in vacant:
            terms = "monthlyRent = null leaseStart = null energyRatePerKWh = null"
        else:
            terms = 'monthlyRent = "350.00" leaseStart = "2025-02-01" energyRatePerKWh = 0.32'
        lease.append(f"row ls_{k} {{ leasee = pr_{k} leaseOf = rm_{k} {terms} }}")
        rows.append((
            who,
            name,
            repr(_area(i)),
            "-" if i in vacant else "350.00",
            "26.0" if i in vacant else "22.0",
            f"Split AC {name}",
            repr(_energy(i)),
        ))

    text = "\n".join([
        THREE_WAY_SCHEMAS,
        _instance("ifc_model", "IFC", [("IfcSpace", ifc_space), ("IfcDistributionElement", ifc_elem)]),
        _instance("brick_model", "BRICK", [
            ("Equipment", equipment), ("Location", location), ("Zone", zone),
            ("Meter", meter), ("SetPoint", setpoint),
        ]),
        _instance("rec_model", "REC", [("Person", person), ("Room", room), ("Lease", lease)]),
        THREE_WAY_RULES,
    ])
    return Case(
        text=shuffle_rows(text, rng),
        source_rows=10 * rooms,
        expect=Expect(
            query_rows=rows,
            entity_rows={"Location": rooms, "Equipment": 2 * rooms, "REC_Lease": rooms},
            roundtrip={
                "Person": (rooms, rooms, 0, 0, 0),
                "Lease": (rooms, rooms, 0, 0, 0),
                "Room": (rooms, rooms, rooms, 0, 0),
            },
        ),
    )


def _instance(name: str, schema: str, blocks: list[tuple[str, list[str]]]) -> str:
    lines = [f"instance {name} : {schema} {{"]
    for entity, rows in blocks:
        lines.append(f"  entity {entity} {{")
        lines.extend(f"    {row}" for row in rows)
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- existential ---------------------------------------------------------------

EXISTENTIAL_SCHEMA = """\
schema S {
  entities X Y
  foreign_keys
    f : X -> Y
  attributes
    xname : X -> String
    yname : Y -> String
}
"""

EXISTENTIAL_RULES = """\
extension WithWitness {
  include S
  constraints
    forall x : X -> exists y : Y , x.f = y
}

query XWitness : WithWitness {
  from x : X
  attributes
    xname -> x.xname
    yname -> x.f.yname
}
"""


def existential(ys: int, rng: random.Random, generators: ModuleType) -> Case:
    """2*ys X rows and ys Y rows; the seed sets f on half of the X rows.

    Matches whose f is set find their witness among the Y rows; the others
    make the chase create a fresh Y.
    """
    xs = 2 * ys
    # Each Y is the target of exactly one X, so the witness scans add up to
    # the same work whatever the seed.
    targets = rng.sample(range(1, ys + 1), ys)
    with_f = dict(zip(sorted(rng.sample(range(1, xs + 1), ys)), targets))
    x_rows, y_rows = [], []
    rows: list[tuple[str, ...]] = []
    for i in range(1, xs + 1):
        link = f" f = y_{with_f[i]:03d}" if i in with_f else ""
        x_rows.append(f'row x_{i:03d} {{ xname = "x{i}"{link} }}')
        rows.append((f"x{i}", f"y{with_f[i]}" if i in with_f else "-"))
    for j in range(1, ys + 1):
        y_rows.append(f'row y_{j:03d} {{ yname = "y{j}" }}')
    text = "\n".join([
        EXISTENTIAL_SCHEMA,
        _instance("data", "S", [("X", x_rows), ("Y", y_rows)]),
        EXISTENTIAL_RULES,
    ])
    unset = xs - len(with_f)
    return Case(
        text=shuffle_rows(text, rng),
        source_rows=xs + ys,
        expect=Expect(
            query_rows=rows,
            entity_rows={"S_X": xs, "S_Y": ys + unset},
            roundtrip={"X": (xs, xs, 0, 0, 0), "Y": (ys, ys, 0, 0, unset)},
            fk_everywhere=("S_X", "f"),
        ),
    )


# Main and half sizes; the half size exists only for the scaling slope. The
# commissioning and three_way sizes count rooms, the existential one counts
# Y rows (with twice as many X rows).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("commissioning", 800, 400, "IFC", commissioning),
        Workload("three_way", 100, 50, "REC", three_way),
        Workload("existential", 150, 75, "S", existential),
    )
}


def generate(workload: Workload, size: int, seed: int, generators: ModuleType) -> Case:
    """The same (workload, size, seed) always gives the same text."""
    rng = random.Random(f"{workload.name}/{size}/{seed}")
    return workload.generate(size, rng, generators)


# -- oracle ----------------------------------------------------------------------

def _csv_body(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


def check(out: Outputs, expect: Expect) -> list[str]:
    """Every way the outputs differ from the expectation; empty when correct."""
    problems: list[str] = []
    got = _csv_body(out.query_csv)
    if len(got) != len(expect.query_rows):
        problems.append(f"query has {len(got)} rows, expected {len(expect.query_rows)}")
    for n, (row, want) in enumerate(zip(got, expect.query_rows)):
        ok = len(row) == len(want) and all(
            cell == w or (w == "*" and _is_number(cell)) for cell, w in zip(row, want)
        )
        if not ok:
            problems.append(f"query row {n}: got {row}, expected {list(want)}")
            break
    for entity, count in expect.entity_rows.items():
        body = _csv_body(out.entity_csvs.get(entity, "id\n"))
        if len(body) != count:
            problems.append(f"{entity}.csv has {len(body)} rows, expected {count}")
    if expect.fk_everywhere is not None:
        entity, column = expect.fk_everywhere
        lines = list(csv.reader(io.StringIO(out.entity_csvs.get(entity, "id\n"))))
        at = lines[0].index(column) if column in lines[0] else None
        unset = sum(1 for row in lines[1:] if at is None or not row[at])
        if unset:
            problems.append(f"{unset} {entity} rows have no {column}")
    tables = {}
    for line in out.roundtrip.splitlines()[1:]:
        name, *counts = line.split()
        tables[name] = tuple(int(c) for c in counts)
    if tables != expect.roundtrip:
        problems.append(f"round trip {tables}, expected {expect.roundtrip}")
    return problems


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True
