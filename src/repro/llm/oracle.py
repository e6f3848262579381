"""The oracle analyst: a deterministic stand-in for the paper's GPT-4 backend.

The oracle receives exactly the prompts KernelGPT would send to the OpenAI
API and produces completions in the structured reply format.  Its "model
weights" are the text-analysis helpers in :mod:`repro.llm.analysis`; its
imperfections come from a seeded error model parameterised by a
:class:`~repro.llm.backend.CapabilityProfile`, calibrated against the paper's
§5.1.3 correctness audit.  Weaker models (GPT-3.5, GPT-4o) are the same
machinery with a different profile (see :mod:`repro.llm.degraded`).

Because the completions are derived only from the prompt text, the oracle
honours the same information boundary as a real LLM: if the pipeline fails to
include a definition in the prompt, the oracle cannot use it and must mark it
as UNKNOWN.
"""

from __future__ import annotations

import hashlib
import random
import re

from .analysis import (
    analyze_struct_text,
    cached_pattern,
    find_delegation_target,
    find_lookup_table,
    find_resource_production,
    find_switch_cases,
    infer_arg_struct,
    infer_device_path,
    infer_socket_identity,
    parse_lookup_table_entries,
    render_typedef,
    uses_ioc_nr_rewrite,
)
from .backend import CapabilityProfile, Completion, GPT4_PROFILE, LLMBackend, Prompt

_SECTION_SPLIT_RE = re.compile(r"^##\s+(.+?)\s*$", re.MULTILINE)
_OPERATION_IDENT_RE = re.compile(r"-\s*IDENT:\s*(\S+)")
_INVALID_CONST_RE = re.compile(r"constant '(?P<name>\w+)' cannot be resolved")
_UNDEFINED_TYPE_RE = re.compile(r"type '(?P<name>\w+)' is not defined")
_DEFINE_LINE_RE = re.compile(r"#define\s+(?P<name>\w+)\s+")
_PROTO_OPS_MEMBER_RE = re.compile(
    r"\.(bind|connect|accept|sendto|recvfrom|sendmsg|recvmsg|poll)\s*=\s*(\w+)"
)
_OPERATION_BLOCK_SPLIT_RE = re.compile(r"/\* operation: ")
_CASE_KEYWORD_RE = re.compile(r"case\s+")
_LABEL_COLON_RE = re.compile(r"\s*:")
_NEXT_LABEL_RE = re.compile(r"\n\s*case\s+\w+\s*:|\n\s*default\s*:")


def _sections(prompt_text: str) -> dict[str, str]:
    """Split a prompt into its ``## Title`` sections."""
    parts: dict[str, str] = {}
    matches = list(_SECTION_SPLIT_RE.finditer(prompt_text))
    for index, match in enumerate(matches):
        start = match.end()
        end = matches[index + 1].start() if index + 1 < len(matches) else len(prompt_text)
        parts[match.group(1).strip().lower()] = prompt_text[start:end].strip()
    return parts


def slice_case_block(code: str, macro: str) -> str | None:
    """Return the statements belonging to ``case macro:`` inside a switch body.

    The block is the text after the first ``case macro:`` label up to the
    next ``case``/``default`` label, or None when there is no such label
    or no label follows it.  ``macro`` is an identifier token, matched
    literally; ``case FOO_BAR:`` is not a ``FOO`` label.
    """
    for label in _CASE_KEYWORD_RE.finditer(code):
        if not code.startswith(macro, label.end()):
            continue
        colon = _LABEL_COLON_RE.match(code, label.end() + len(macro))
        if colon is None:
            continue
        following = _NEXT_LABEL_RE.search(code, colon.end())
        return code[colon.end():following.start()] if following else None
    return None


class OracleBackend(LLMBackend):
    """GPT-4-class simulated analyst."""

    def __init__(self, profile: CapabilityProfile = GPT4_PROFILE, *, query_budget: int | None = None):
        super().__init__(model=profile.name, query_budget=query_budget)
        self.profile = profile

    def store_profile(self) -> str:
        """Identity for persistent cache keys: the full capability profile.

        The model name alone is not enough — a custom-knobbed profile named
        ``gpt-4`` answers differently from the stock one — so the digest
        covers every knob (``repr`` of a frozen dataclass enumerates fields
        in declaration order, deterministically).
        """
        knobs = hashlib.sha256(repr(self.profile).encode("utf-8")).hexdigest()[:16]
        return f"oracle:{self.profile.name}:{knobs}"

    # ------------------------------------------------------------------ rng
    def _rng(self, *key: str) -> random.Random:
        return random.Random("|".join((self.profile.name,) + key))

    # ----------------------------------------------------------- completion
    def complete_batch(self, requests) -> list[Completion]:
        """Serve a batch through the base template.

        Oracle completions are pure functions of (profile, prompt), so the
        default per-prompt :meth:`complete` hook suffices; the template
        contributes in-batch dedupe, atomic budget reservation and one
        meter update per batch.  :class:`~repro.llm.degraded.DegradedBackend`
        inherits this implementation with its weaker profile.
        """
        return self._serve_batch(requests)

    def complete(self, prompt: Prompt) -> Completion:
        sections = _sections(prompt.text)
        if prompt.kind == "identifier":
            text = self._identifier_reply(prompt, sections)
        elif prompt.kind == "type":
            text = self._type_reply(prompt, sections)
        elif prompt.kind == "dependency":
            text = self._dependency_reply(prompt, sections)
        elif prompt.kind == "repair":
            text = self._repair_reply(prompt, sections)
        elif prompt.kind == "all-in-one":
            text = self._all_in_one_reply(prompt, sections)
        else:
            text = "## UNKNOWN\n(none)\n"
        return Completion(text=text, model=self.model)

    # ------------------------------------------------------ identifier stage
    def _identifier_reply(self, prompt: Prompt, sections: dict[str, str]) -> str:
        registration = sections.get("registration", "")
        code = sections.get("source code of relevant functions", "")
        combined = registration + "\n" + code
        lines: list[str] = []
        unknowns: list[str] = []

        device = infer_device_path(registration)
        if device is not None:
            lines.append("## DEVICE")
            lines.append(f"- PATH: {device.path}")
        family, sock_type, protocol = infer_socket_identity(combined)
        if family is not None and self.profile.socket_support:
            lines.append("## SOCKET")
            type_text = sock_type if sock_type is not None else 2
            proto_text = protocol if protocol is not None else 0
            lines.append(f"- FAMILY: {family} | TYPE: {type_text} | PROTO: {proto_text}")

        rewrite = uses_ioc_nr_rewrite(code)
        cases = find_switch_cases(code)
        identifiers: list[tuple[str, str | None, str]] = []  # (macro, handler fn, syscall)

        if cases:
            syscall = "ioctl"
            if "optname" in code and "sockptr" in code:
                syscall = "setsockopt"
            elif "optname" in code:
                syscall = "getsockopt" if "char __user *optval" in code else "setsockopt"
            for macro, handler_fn in cases:
                identifiers.append((self._maybe_rewrite(macro, rewrite, prompt.subject), handler_fn, syscall))

        table = find_lookup_table(code)
        if table is not None:
            entries = parse_lookup_table_entries(combined)
            if entries:
                for macro, handler_fn in entries:
                    identifiers.append((self._maybe_rewrite(macro, True, prompt.subject), handler_fn, "ioctl"))
            else:
                unknowns.append(f"- TABLE: {table} | USAGE: if ({table}[i].cmd == nr) return {table}[i].fn(file, argp);")

        # Socket message operations are registered directly in the proto_ops
        # initializer: treat each registered member as one operation.
        for member, handler_fn in _PROTO_OPS_MEMBER_RE.findall(registration + code):
            identifiers.append((member, handler_fn, member))

        if not identifiers and not unknowns:
            target = find_delegation_target(code)
            if target is not None:
                usage = f"return {target}(file, command, u);"
                unknowns.append(f"- FUNC: {target} | USAGE: {usage}")

        lines.append("## IDENTIFIERS")
        emitted = 0
        # With ``bad_constant_rate`` probability the analyst mis-remembers one
        # macro spelling for this handler — a repairable unknown-constant error.
        handler_rng = self._rng("bad-const", prompt.subject)
        corrupt_index = None
        if identifiers and handler_rng.random() < self.profile.bad_constant_rate:
            corrupt_index = handler_rng.randrange(len(identifiers))
        for position, (macro, handler_fn, syscall) in enumerate(identifiers):
            rng = self._rng("ident", prompt.subject, macro)
            if rng.random() < self.profile.miss_op_rate:
                continue
            emitted_macro = macro
            if position == corrupt_index and syscall in ("ioctl", "setsockopt", "getsockopt"):
                emitted_macro = macro + "_REQ"
            handler_part = f" | HANDLER: {handler_fn}" if handler_fn else ""
            lines.append(f"- IDENT: {emitted_macro}{handler_part} | SYSCALL: {syscall}")
            emitted += 1
        if emitted == 0:
            lines.append("(none)")
        lines.append("## UNKNOWN")
        if unknowns:
            lines.extend(unknowns)
        else:
            lines.append("(none)")
        return "\n".join(lines) + "\n"

    def _maybe_rewrite(self, macro: str, rewrite: bool, subject: str) -> str:
        """Map an internal switch constant back to the user-facing macro.

        When the dispatcher switches on ``_IOC_NR(cmd)`` the case labels are
        the per-driver ``*_CMD`` numbers; a capable analyst reports the full
        ioctl macro instead.  With ``identifier_error_rate`` probability the
        analyst fails to reverse the mapping (the §5.1.3 wrong-identifier
        cases) and reports the internal constant.
        """
        if not rewrite or not macro.endswith("_CMD"):
            return macro
        rng = self._rng("rewrite", subject, macro)
        if rng.random() < self.profile.identifier_error_rate:
            return macro
        return macro.removesuffix("_CMD")

    # ------------------------------------------------------------ type stage
    def _type_reply(self, prompt: Prompt, sections: dict[str, str]) -> str:
        code = sections.get("source code of relevant functions", "")
        operation = sections.get("operation", "")
        ident_match = _OPERATION_IDENT_RE.search(operation)
        identifier = ident_match.group(1) if ident_match else prompt.subject

        handler_code = slice_case_block(code, identifier) or code
        struct_name, direction = infer_arg_struct(handler_code)
        lines: list[str] = ["## ARGTYPE"]
        unknowns: list[str] = []
        if struct_name is None:
            lines.append(f"- IDENT: {identifier} | TYPE: {direction} | DIR: {direction}")
        else:
            lines.append(f"- IDENT: {identifier} | TYPE: {struct_name} | DIR: {direction}")
            fields, missing = analyze_struct_text(struct_name, code, handler_body=handler_code)
            # With ``undefined_type_rate`` probability the analyst forgets to
            # emit the definition and does not flag it as unknown either — a
            # repairable undefined-type validation error.
            forgets_definition = (
                self._rng("undef-type", prompt.subject, struct_name).random()
                < self.profile.undefined_type_rate
            )
            if fields and not forgets_definition:
                fields = self._degrade_fields(prompt.subject, struct_name, fields)
                lines.append("## TYPEDEF")
                lines.append(render_typedef(struct_name, fields))
            elif not fields:
                missing = [struct_name]
            if forgets_definition:
                missing = []
            for name in missing:
                unknowns.append(f"- STRUCT: {name}")
        lines.append("## UNKNOWN")
        lines.extend(unknowns or ["(none)"])
        return "\n".join(lines) + "\n"

    def _degrade_fields(self, subject: str, struct_name: str, fields):
        """Apply the per-field error model (wrong types, dropped len relations)."""
        from .analysis import AnalyzedField

        degraded = []
        for item in fields:
            rng = self._rng("field", subject, struct_name, item.name)
            syz_type = item.syz_type
            if syz_type.startswith("len[") and rng.random() > self.profile.len_relation_rate:
                syz_type = "int32"
            elif rng.random() < self.profile.wrong_type_rate:
                syz_type = "int32" if syz_type not in ("int32",) else "int64"
            degraded.append(AnalyzedField(item.name, syz_type, item.out, item.nested_struct))
        return degraded

    # ------------------------------------------------------ dependency stage
    def _dependency_reply(self, prompt: Prompt, sections: dict[str, str]) -> str:
        code = sections.get("source code of relevant functions", "")
        lines = ["## DEPENDENCY"]
        unknowns: list[str] = []
        found = 0
        for block in _OPERATION_BLOCK_SPLIT_RE.split(code)[1:]:
            macro, _, body = block.partition(" */")
            production = find_resource_production(body)
            if production is None:
                continue
            resource, fops = production
            if not self.profile.dependency_discovery:
                continue
            lines.append(f"- IDENT: {macro.strip()} | PRODUCES: {resource} | HANDLER: {fops}")
            unknowns.append(f"- HANDLER: {fops}")
            found += 1
        if found == 0:
            production = find_resource_production(code)
            if production is not None and self.profile.dependency_discovery:
                resource, fops = production
                lines.append(f"- IDENT: {prompt.subject} | PRODUCES: {resource} | HANDLER: {fops}")
                unknowns.append(f"- HANDLER: {fops}")
                found += 1
        if found == 0:
            lines.append("(none)")
        lines.append("## UNKNOWN")
        lines.extend(unknowns or ["(none)"])
        return "\n".join(lines) + "\n"

    # ----------------------------------------------------------- repair stage
    def _repair_reply(self, prompt: Prompt, sections: dict[str, str]) -> str:
        rng = self._rng("repair", prompt.subject)
        if rng.random() < self.profile.unrepairable_rate:
            return "## REPAIRED\n\n"
        description = sections.get("invalid description", "")
        errors = sections.get("error messages", "")
        code = sections.get("relevant source code", "")
        repaired = description

        for match in _INVALID_CONST_RE.finditer(errors):
            bad_name = match.group("name")
            replacement = self._closest_define(bad_name, code)
            if replacement is not None:
                repaired = repaired.replace(bad_name, replacement)

        appended_defs: list[str] = []
        for match in _UNDEFINED_TYPE_RE.finditer(errors):
            missing_type = match.group("name")
            fields, _ = analyze_struct_text(missing_type, code)
            if fields:
                appended_defs.append(render_typedef(missing_type, fields))
            else:
                # Fall back to an opaque byte-array definition so the
                # description at least becomes syntactically valid.
                appended_defs.append(f"{missing_type} {{\n\tdata array[int8, 8]\n}}")
        if appended_defs:
            repaired = repaired + "\n\n" + "\n\n".join(appended_defs)
        return "## REPAIRED\n" + repaired + "\n"

    @staticmethod
    def _closest_define(bad_name: str, code: str) -> str | None:
        """Pick the most plausible macro from the provided source code."""
        import difflib

        candidates = [match.group("name") for match in _DEFINE_LINE_RE.finditer(code)]
        if not candidates:
            return None
        best = difflib.get_close_matches(bad_name, candidates, n=1, cutoff=0.5)
        return best[0] if best else None

    # ------------------------------------------------------ all-in-one stage
    def _all_in_one_reply(self, prompt: Prompt, sections: dict[str, str]) -> str:
        """Single-shot analysis used by the ablation.

        The whole handler is analysed from one (clipped) prompt, without the
        iterative refinement loop: delegation chains are not followed, only
        operations whose dispatch is directly visible are found, and only
        structs whose definitions survived clipping get type descriptions.
        """
        registration = sections.get("registration", "")
        code = sections.get("source code", "")
        combined = registration + "\n" + code
        lines: list[str] = []

        device = infer_device_path(registration)
        if device is not None:
            lines.append("## DEVICE")
            lines.append(f"- PATH: {device.path}")
        family, sock_type, protocol = infer_socket_identity(combined)
        if family is not None:
            lines.append("## SOCKET")
            lines.append(f"- FAMILY: {family} | TYPE: {sock_type or 2} | PROTO: {protocol or 0}")

        rewrite = uses_ioc_nr_rewrite(code)
        cases = find_switch_cases(code)
        lines.append("## IDENTIFIERS")
        emitted = 0
        rng = self._rng("all-in-one", prompt.subject)
        for macro, handler_fn in cases:
            # Without the staged pipeline the analyst loses focus on long
            # handler lists: a large fraction of operations is dropped.
            if rng.random() < 0.4:
                continue
            handler_part = f" | HANDLER: {handler_fn}" if handler_fn else ""
            lines.append(f"- IDENT: {self._maybe_rewrite(macro, rewrite, prompt.subject)}{handler_part} | SYSCALL: ioctl")
            emitted += 1
        if emitted == 0:
            lines.append("(none)")

        argtype_lines: list[str] = []
        typedef_lines: list[str] = []
        for macro, handler_fn in cases:
            if handler_fn is None:
                continue
            fn_match = cached_pattern(
                rf"static\s+\w+\s+{re.escape(handler_fn)}\([^)]*\)\s*\n\{{(?P<body>.*?)\n\}}",
                re.DOTALL,
            ).search(code)
            if not fn_match:
                continue
            struct_name, direction = infer_arg_struct(fn_match.group("body"))
            if struct_name is None:
                continue
            fields, _missing = analyze_struct_text(struct_name, code, handler_body=fn_match.group("body"))
            if not fields or rng.random() < 0.5:
                continue
            argtype_lines.append(f"- IDENT: {self._maybe_rewrite(macro, rewrite, prompt.subject)} | TYPE: {struct_name} | DIR: {direction}")
            typedef_lines.append(render_typedef(struct_name, fields))
        if argtype_lines:
            lines.append("## ARGTYPE")
            lines.extend(argtype_lines)
        if typedef_lines:
            lines.append("## TYPEDEF")
            lines.extend(typedef_lines)
        lines.append("## UNKNOWN")
        lines.append("(none)")
        return "\n".join(lines) + "\n"


__all__ = ["OracleBackend", "slice_case_block"]
