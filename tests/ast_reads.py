"""What a Python module reads: the one definition of "read" that the
``ast`` lint guards (unused imports, unread definitions) share.
"""

import ast


def _is_export_list(node):
    """``__all__ = [...]``: names a module exports, which is not a read."""
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets)


def _names_in(tree, used):
    """Add every name ``tree`` reads to ``used``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if _is_export_list(node):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and not isinstance(node.ctx, ast.Store):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                stack.append(ast.parse(node.value, mode="eval"))
            except (SyntaxError, ValueError):
                pass
        stack.extend(ast.iter_child_nodes(node))


def names_read(source):
    """Every name the module ``source`` reads.

    A name is read when the module loads it, looks it up as an attribute,
    or writes it inside a string constant that parses as an expression: a
    quoted annotation (``"Optional[int]"``) or a dotted target such as
    ``"EventQueue.push"``, which code that wraps methods by name uses.
    Binding a name, storing an attribute and listing a name in ``__all__``
    are not reads.
    """
    used = set()
    _names_in(ast.parse(source), used)
    return used
