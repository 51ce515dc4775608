"""Global-link arrangements: how a group's global links map onto peer groups.

A group owns ``L = a * h`` global links, locally numbered ``0 .. L-1``;
link ``j`` belongs to router ``j // h`` of the group, global port
``j % h``.  An *arrangement* decides, for every ``(group, j)``, the peer
``(group', j')`` at the far end.  It must be a consistent perfect
matching: ``peer(peer(g, j)) == (g, j)`` and every ordered pair of
distinct groups is joined by exactly one link.
"""

from __future__ import annotations

import abc


class GlobalArrangement(abc.ABC):
    """Strategy object mapping a group's local global-link index to its peer."""

    name: str = "abstract"
    #: whether ``peer(g + 1, j)`` is ``peer(g, j)`` one group on
    group_shift_invariant = False

    def __init__(self, num_groups: int, links_per_group: int) -> None:
        if num_groups != links_per_group + 1:
            raise ValueError(
                "fully-subscribed complete global graph requires "
                f"g == a*h + 1, got g={num_groups}, a*h={links_per_group}"
            )
        self.num_groups = num_groups
        self.links_per_group = links_per_group

    @abc.abstractmethod
    def peer(self, group: int, link: int) -> tuple[int, int]:
        """Return ``(peer_group, peer_link)`` for local link ``link`` of ``group``."""

    def target_group(self, group: int, link: int) -> int:
        return self.peer(group, link)[0]

    def link_to_group(self, group: int, target: int) -> int:
        """Local link index of ``group`` that reaches ``target`` (!= group)."""
        if target == group:
            raise ValueError("a group has no global link to itself")
        return self._link_to(group, target)

    @abc.abstractmethod
    def _link_to(self, group: int, target: int) -> int: ...


class PalmTreeArrangement(GlobalArrangement):
    """The standard 'palm tree' arrangement used in the OFAR/ICPP papers.

    Link ``j`` of group ``g`` reaches group ``(g + j + 1) mod G`` and lands
    on that group's link ``L - 1 - j``.  This is self-consistent:
    from ``g' = g+j+1`` taking link ``j' = L-1-j`` reaches
    ``g' + j' + 1 = g + L + 1 = g (mod G)``.
    """

    name = "palmtree"
    group_shift_invariant = True

    def peer(self, group: int, link: int) -> tuple[int, int]:
        if not 0 <= link < self.links_per_group:
            raise ValueError(f"link index {link} out of range")
        return ((group + link + 1) % self.num_groups, self.links_per_group - 1 - link)

    def _link_to(self, group: int, target: int) -> int:
        return (target - group - 1) % self.num_groups


class ConsecutiveArrangement(GlobalArrangement):
    """'Consecutive' arrangement: link ``j`` of ``g`` goes to the j-th other group.

    Peer groups are enumerated in increasing absolute group id, skipping the
    group itself.  Used as an ablation contrast against palm tree — the
    pathological ADVG+h hotspot depends on the arrangement.
    """

    name = "consecutive"

    def peer(self, group: int, link: int) -> tuple[int, int]:
        if not 0 <= link < self.links_per_group:
            raise ValueError(f"link index {link} out of range")
        target = link if link < group else link + 1
        back = group if group < target else group - 1
        return (target, back)

    def _link_to(self, group: int, target: int) -> int:
        return target if target < group else target - 1


_ARRANGEMENTS = {cls.name: cls for cls in (PalmTreeArrangement, ConsecutiveArrangement)}


def arrangement_by_name(name: str, num_groups: int, links_per_group: int) -> GlobalArrangement:
    """Instantiate a registered arrangement by name (``palmtree``/``consecutive``)."""
    try:
        cls = _ARRANGEMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown arrangement {name!r}; known: {sorted(_ARRANGEMENTS)}"
        ) from None
    return cls(num_groups, links_per_group)
