"""Line-oriented hierarchy files: parse, validate, serialize.

Format (one key per line, comments start with '#'):

    name: C3fixed
    elements: A B C D E
    cover: D B
    cover: D A
    cover: E D
    cover: E C
    precedence: E = D C B
    global_order: E D C B A

Cover direction is fixed as ``cover: SUB SUPER``, and each cover is
declared once; a ``global_order`` lists every element once.  ``name``,
``elements`` and ``global_order`` appear at most once, and so does an
element's ``precedence`` line.  The order
in which an element's cover lines appear doubles as its default
precedence list, the way a class statement's base list does; an explicit
``precedence:`` line overrides it (and may add extra strict superiors).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError
from .poset import Poset


class HierarchyParseError(InputError):
    """The hierarchy file is malformed."""


@dataclass
class HierarchyFile:
    name: str
    elements: list[str]
    covers: list[tuple[str, str]]
    precedence: dict[str, list[str]] = field(default_factory=dict)
    global_order: list[str] | None = None

    def to_poset(self) -> Poset:
        index = {name: i for i, name in enumerate(self.elements)}
        return Poset(
            len(self.elements),
            [(index[c], index[a]) for c, a in self.covers],
            self.elements,
        )

    def assignment_for(self, p: Poset) -> dict[int, tuple[int, ...]]:
        """Precedence lists as element-id tuples.

        Elements without an explicit entry list their covers in cover-line
        order.  An unknown name raises ``KeyError(name)``.
        """
        ids = dict(zip(p.names, range(p.n)))
        declared: dict[str, list[str]] = {name: [] for name in self.elements}
        for sub, sup in self.covers:
            declared[sub].append(sup)
        out = {}
        for i, name in enumerate(self.elements):
            listed = self.precedence.get(name, declared[name])
            out[i] = tuple(ids[x] for x in listed)
        return out

    def global_order_ids(self, p: Poset) -> list[int] | None:
        if self.global_order is None:
            return None
        ids = dict(zip(p.names, range(p.n)))
        return [ids[x] for x in self.global_order]


def parse_hierarchy(text: str, source: str = "<string>") -> HierarchyFile:
    name = ""
    elements: list[str] = []
    covers: list[tuple[str, str]] = []
    seen_covers: set[tuple[str, str]] = set()
    precedence: dict[str, list[str]] = {}
    global_order: list[str] | None = None
    seen_keys: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise HierarchyParseError(f"{source}:{lineno}: missing ':' in {line!r}")
        key = key.strip()
        value = value.strip()
        if key in ("name", "elements", "global_order"):
            if key in seen_keys:
                raise HierarchyParseError(f"{source}:{lineno}: repeated {key!r} line")
            seen_keys.add(key)
        if key == "name":
            name = value
        elif key == "elements":
            elements = value.split()
        elif key == "cover":
            parts = value.split()
            if len(parts) != 2:
                raise HierarchyParseError(
                    f"{source}:{lineno}: cover needs exactly two names: {line!r}"
                )
            if (parts[0], parts[1]) in seen_covers:
                raise HierarchyParseError(
                    f"{source}:{lineno}: duplicate cover: {line!r}"
                )
            seen_covers.add((parts[0], parts[1]))
            covers.append((parts[0], parts[1]))
        elif key == "precedence":
            owner, eq, rest = value.partition("=")
            if not eq:
                raise HierarchyParseError(
                    f"{source}:{lineno}: precedence needs 'OWNER = ...': {line!r}"
                )
            owner = owner.strip()
            if owner in precedence:
                raise HierarchyParseError(
                    f"{source}:{lineno}: repeated precedence for {owner!r}"
                )
            precedence[owner] = rest.split()
        elif key == "global_order":
            global_order = value.split()
        else:
            raise HierarchyParseError(f"{source}:{lineno}: unknown key {key!r}")

    if not elements:
        raise HierarchyParseError(f"{source}: no 'elements:' line")
    if len(set(elements)) != len(elements):
        raise HierarchyParseError(f"{source}: duplicate element names")
    known = set(elements)
    for sub, sup in covers:
        for x in (sub, sup):
            if x not in known:
                raise HierarchyParseError(f"{source}: unknown element {x!r} in cover")
    for owner, listed in precedence.items():
        for x in (owner, *listed):
            if x not in known:
                raise HierarchyParseError(
                    f"{source}: unknown element {x!r} in precedence"
                )
    if global_order is not None:
        for x in global_order:
            if x not in known:
                raise HierarchyParseError(
                    f"{source}: unknown element {x!r} in global_order"
                )
        if len(global_order) != len(elements) or len(set(global_order)) != len(elements):
            raise HierarchyParseError(
                f"{source}: global_order must list every element exactly once"
            )
    return HierarchyFile(
        name=name,
        elements=elements,
        covers=covers,
        precedence=precedence,
        global_order=global_order,
    )


def serialize_hierarchy(h: HierarchyFile) -> str:
    lines = []
    if h.name:
        lines.append(f"name: {h.name}")
    lines.append("elements: " + " ".join(h.elements))
    for sub, sup in h.covers:
        lines.append(f"cover: {sub} {sup}")
    for owner in h.elements:
        if owner in h.precedence:
            lines.append(f"precedence: {owner} = " + " ".join(h.precedence[owner]))
    if h.global_order is not None:
        lines.append("global_order: " + " ".join(h.global_order))
    return "\n".join(lines) + "\n"


def to_dot(h: HierarchyFile) -> str:
    """DOT rendering of the cover digraph (sub -> super), export only."""
    lines = [f'digraph "{h.name or "hierarchy"}" {{']
    for name in h.elements:
        lines.append(f'  "{name}";')
    for sub, sup in h.covers:
        lines.append(f'  "{sub}" -> "{sup}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
