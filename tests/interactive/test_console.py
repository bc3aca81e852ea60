"""Unit tests for the console front-end adapters."""

import pytest

from repro.exceptions import OracleError
from repro.interactive.console import ConsoleUser, TranscriptUser
from repro.interactive.session import InteractiveSession
from repro.learning.language_index import LanguageIndex
from repro.learning.path_selection import candidate_prefix_tree
from repro.serving.workspace import default_workspace


def evaluate(graph, query):
    """Workspace-engine evaluation (the module-level evaluate() shim now warns)."""
    return default_workspace().engine.evaluate(graph, query)


class ScriptedIO:
    """Collects output and replays canned input lines."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.prompts = []
        self.printed = []

    def input(self, prompt):
        self.prompts.append(prompt)
        if not self.answers:
            raise EOFError
        return self.answers.pop(0)

    def output(self, text):
        self.printed.append(text)


class TestConsoleUser:
    def test_label_yes_no(self, figure1_graph):
        io = ScriptedIO(["y", "n", "maybe", "no"])
        user = ConsoleUser(figure1_graph, input_fn=io.input, output_fn=io.output)
        assert user.label("N2") is True
        assert user.label("N5") is False
        # invalid answer re-prompts
        assert user.label("N3") is False
        assert any("please answer" in line for line in io.printed)

    def test_wants_zoom_prints_neighborhood(self, figure1_graph):
        io = ScriptedIO(["y"])
        user = ConsoleUser(figure1_graph, input_fn=io.input, output_fn=io.output)
        neighborhood = default_workspace().neighborhoods(figure1_graph).neighborhood("N2", 2)
        assert user.wants_zoom("N2", neighborhood) is True
        assert any("neighborhood of N2" in line for line in io.printed)

    def test_validate_path_default_is_highlighted(self, figure1_graph):
        tree = candidate_prefix_tree(
            figure1_graph, LanguageIndex(figure1_graph, 3), "N2", ["N5"], preferred_length=3
        )
        io = ScriptedIO([""])
        user = ConsoleUser(figure1_graph, input_fn=io.input, output_fn=io.output)
        assert user.validate_path("N2", tree) == ("bus", "bus", "cinema")

    def test_validate_path_custom_word_and_skip(self, figure1_graph):
        tree = candidate_prefix_tree(
            figure1_graph, LanguageIndex(figure1_graph, 3), "N2", ["N5"], preferred_length=3
        )
        io = ScriptedIO(["bus.tram.cinema"])
        user = ConsoleUser(figure1_graph, input_fn=io.input, output_fn=io.output)
        assert user.validate_path("N2", tree) == ("bus", "tram", "cinema")
        io = ScriptedIO(["skip"])
        user = ConsoleUser(figure1_graph, input_fn=io.input, output_fn=io.output)
        assert user.validate_path("N2", tree) is None

    def test_validate_path_rejects_unknown_word_then_retries(self, figure1_graph):
        tree = candidate_prefix_tree(
            figure1_graph, LanguageIndex(figure1_graph, 3), "N2", ["N5"], preferred_length=3
        )
        io = ScriptedIO(["tram.tram", "bus.bus.cinema"])
        user = ConsoleUser(figure1_graph, input_fn=io.input, output_fn=io.output)
        assert user.validate_path("N2", tree) == ("bus", "bus", "cinema")
        assert any("not a path" in line for line in io.printed)

    def test_eof_raises_oracle_error(self, figure1_graph):
        io = ScriptedIO([])
        user = ConsoleUser(figure1_graph, input_fn=io.input, output_fn=io.output)
        with pytest.raises(OracleError):
            user.label("N2")

    def test_console_user_drives_full_session(self, figure1_graph):
        """End-to-end: a scripted console user completes the Figure 2 loop."""
        # generous scripted answers: always refuse zooming, answer labels by
        # the goal query, accept highlighted paths
        goal_answer = evaluate(figure1_graph, "(tram + bus)* . cinema")

        class AutoIO:
            def __init__(self):
                self.pending_node = None
                self.printed = []

            def input(self, prompt):
                if prompt.startswith("zoom out around"):
                    return "n"
                if prompt.startswith("is "):
                    node = prompt.split()[1]
                    return "y" if node in goal_answer else "n"
                return ""  # accept highlighted path

            def output(self, text):
                self.printed.append(text)

        io = AutoIO()
        user = ConsoleUser(figure1_graph, input_fn=io.input, output_fn=io.output)
        session = InteractiveSession(figure1_graph, user, max_interactions=12)
        result = session.run()
        assert result.learned_query is not None
        answer = evaluate(figure1_graph, result.learned_query)
        for node, sign in result.interaction_trace():
            assert (node in answer) == (sign == "+")


class TestTranscriptUser:
    def test_replays_script(self, figure1_graph):
        user = TranscriptUser(
            [
                ("zoom", "N2", False),
                ("label", "N2", True),
                ("validate", "N2", ("bus", "bus", "cinema")),
            ]
        )
        neighborhood = default_workspace().neighborhoods(figure1_graph).neighborhood("N2", 2)
        assert user.wants_zoom("N2", neighborhood) is False
        assert user.label("N2") is True
        tree = candidate_prefix_tree(figure1_graph, LanguageIndex(figure1_graph, 3), "N2", ["N5"])
        assert user.validate_path("N2", tree) == ("bus", "bus", "cinema")
        assert len(user.consumed) == 3

    def test_mismatch_raises(self, figure1_graph):
        user = TranscriptUser([("label", "N1", True)])
        with pytest.raises(OracleError):
            user.label("N2")

    def test_exhausted_script_raises(self, figure1_graph):
        user = TranscriptUser([])
        with pytest.raises(OracleError):
            user.label("N2")
